package eventq

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// Parker is the one way a completion wait blocks — Queue.Wait/Poll here,
// CTWait in core. A waiter takes a Wait from Begin, then loops { check its
// condition; Park }. Producers Wake after publishing, and a Wake releases
// every parked waiter to re-check its own condition, so none strands another.
// A parked waiter sleeps on one channel receive: its timeout and Close reach
// it as Wakes too, the timeout from the Parker's one timer, armed for the
// earliest deadline of any waiter that parked since it last fired.
type Parker struct {
	gen     atomic.Int64           // bumped by every Wake
	waiters atomic.Pointer[waiter] // parked, each woken once; stored under mu

	mu     sync.Mutex
	free   *waiter //lint:guardedby mu  nodes of waiters that left
	armed  int64   //lint:guardedby mu  the timer's pending deadline, ns since epoch; 0: none
	closed bool    //lint:guardedby mu
	timer  *time.Timer
}

// waiter is one parked waiter's wake-up channel (capacity 1), kept for reuse.
type waiter struct {
	wake chan struct{}
	next *waiter
}

// NewParker makes a Parker, its timer and the node of its first waiter.
func NewParker() *Parker {
	p := &Parker{free: &waiter{wake: make(chan struct{}, 1)}}
	p.timer = time.AfterFunc(time.Hour, func() {
		p.mu.Lock()
		p.armed = 0 // fired: whoever parks next arms it, each woken waiter re-parks
		p.mu.Unlock()
		p.Wake()
	})
	p.timer.Stop()
	return p
}

// epoch is what deadlines count from: monotonic, and past 0 once anything waits.
var epoch = time.Now()

// Wake releases every parked waiter and never blocks; with nobody parked it
// is an atomic add and one load.
//
// It runs per posted event and per counted completion, on the delivery path.
func (p *Parker) Wake() {
	p.gen.Add(1)
	if p.waiters.Load() == nil {
		return
	}
	p.mu.Lock()
	for n := p.waiters.Swap(nil); n != nil; n = n.next {
		select {
		case n.wake <- struct{}{}:
		default: // unreachable: a node is woken once per registration
		}
	}
	p.mu.Unlock()
}

// Close releases every waiter, parked now or later.
func (p *Parker) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.timer.Stop()
	p.Wake()
}

// Wait is what one blocking call keeps across its Parks: the generation its
// last check saw, and its deadline since epoch, fixed when it first parks.
type Wait struct{ gen, deadline int64 }

// Begin starts a wait; call it before the first check of the condition.
func (p *Parker) Begin() Wait { return Wait{gen: p.gen.Load()} }

// Park blocks until the condition may have changed: a Wake since the last
// check, the timeout or the Close (nil: check again). It returns ErrTimeout
// once d has passed since this Wait first parked (d <= 0: never), ErrClosed
// after Close.
//
// Every blocking EQWait, EQPoll and CTWait parks here.
func (p *Parker) Park(w *Wait, d time.Duration) error {
	var now int64
	if d > 0 {
		if now = int64(time.Since(epoch)); w.deadline == 0 {
			w.deadline = now + int64(d)
		} else if now >= w.deadline {
			return types.ErrTimeout
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return types.ErrClosed
	}
	n := p.free
	if n == nil {
		// More waiters parked at once than this Parker had before: warm-up,
		// the node is kept.
		n = &waiter{wake: make(chan struct{}, 1)}
	}
	// Listed before the generation is compared: a racing Wake either bumped
	// it before this load or sees this waiter, and takes mu after.
	p.free, n.next = n.next, p.waiters.Load()
	p.waiters.Store(n)
	if g := p.gen.Load(); g != w.gen {
		p.waiters.Store(n.next)
		n.next, p.free = p.free, n
		p.mu.Unlock()
		w.gen = g
		return nil
	}
	// Later only once fired: a due, unfired timer is other waiters' wake-up.
	if d > 0 && (p.armed == 0 || w.deadline < p.armed) {
		p.armed = w.deadline
		p.timer.Reset(time.Duration(w.deadline - now))
	}
	p.mu.Unlock()
	<-n.wake
	w.gen = p.gen.Load()
	p.mu.Lock()
	n.next, p.free = p.free, n
	p.mu.Unlock()
	return nil
}
