package eventq

import (
	"sync"
	"time"

	"repro/internal/types"
)

// Parker is the one way a completion wait blocks — Queue.Wait/Poll here,
// CTWait in core: a one-token wake-up channel rather than a condition
// variable, so a waiter can honour a timeout and a Close without
// sleep-polling. Producers Wake after publishing; a waiter loops
// { check its condition; Park } and leaves through End, which passes the
// token on when more is pending, so one token never strands a second waiter.
type Parker struct {
	notify chan struct{} // capacity 1: a wake-up is pending
	done   chan struct{} // closed by Close
}

func NewParker() Parker {
	return Parker{notify: make(chan struct{}, 1), done: make(chan struct{})}
}

// Wake leaves at most one wake-up token and never blocks.
//
//lint:noalloc runs per posted event and per counted completion, on the delivery path
func (p *Parker) Wake() {
	select {
	case p.notify <- struct{}{}:
	default: // a token is already pending; whoever takes it re-checks
	}
}

// Close releases every waiter, parked now or later. Call it once.
func (p *Parker) Close() { close(p.done) }

// Wait is what one blocking call keeps across its Parks: the timeout armed
// the first time it had to block, so a wait that finds its event arms none.
type Wait struct{ to *timeout }

// Park blocks until a Wake (nil: check the condition again), the Close
// (ErrClosed) or d after this Wait first parked (ErrTimeout; d <= 0 never).
// After an error there is nothing left to End.
//
//lint:noalloc every blocking EQWait, EQPoll and CTWait parks here
func (p *Parker) Park(w *Wait, d time.Duration) error {
	var expired <-chan struct{}
	if d > 0 {
		if w.to == nil {
			//lint:ignore noalloc pool miss is warm-up; the steady state reuses a stopped, drained timer
			w.to = timeouts.Get().(*timeout)
			w.to.t.Reset(d)
		}
		expired = w.to.fired
	}
	select {
	case <-p.notify:
		return nil
	case <-expired:
		timeouts.Put(w.to) // fired and received: stopped and drained already
		w.to = nil
		return types.ErrTimeout
	case <-p.done:
		p.End(w, false)
		return types.ErrClosed
	}
}

// End finishes a wait: its timeout goes back to the pool stopped and drained,
// and with more pending the token goes on to the next waiter.
//
//lint:noalloc the tail of every satisfied wait
func (p *Parker) End(w *Wait, more bool) {
	if to := w.to; to != nil {
		w.to = nil
		if !to.t.Stop() {
			<-to.fired // fired unreceived: its one token is in the channel, or about to be
		}
		timeouts.Put(to)
	}
	if more {
		p.Wake()
	}
}

// timeout is a pooled func timer firing into its own channel. Func timers
// kept one Stop contract across Go 1.23 (go.mod says 1.22, the toolchain may
// not): Stop reports false exactly when the func has been started, and the
// func sends exactly once, so every way out of a wait leaves fired empty.
type timeout struct {
	t     *time.Timer
	fired chan struct{} // capacity 1
}

var timeouts = sync.Pool{New: func() any {
	to := &timeout{fired: make(chan struct{}, 1)}
	to.t = time.AfterFunc(time.Hour, func() { to.fired <- struct{}{} })
	to.t.Stop() // pooled timeouts are stopped; Park arms them with Reset
	return to
}}
