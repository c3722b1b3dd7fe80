package transport_test

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// parker is a handler whose first call parks until released; it counts the
// messages it was handed and releases them.
type parker struct {
	parked, release chan struct{}
	calls, msgs     int // written by the handler only; read after Close
}

func newParker() *parker {
	return &parker{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parker) handle(batch []transport.Delivery) {
	p.calls++
	p.msgs += len(batch)
	if p.calls == 1 {
		close(p.parked)
		<-p.release
	}
	discard(batch)
}

func pooled() transport.Delivery {
	b := bufpool.Get(16)
	return transport.Delivery{Src: 1, Msg: b.Bytes(), Buf: b}
}

// async runs f on its own goroutine and reports its return.
func async(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	return done
}

// heldUp fails the test if Close, done, returns within a short while.
func heldUp(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatal("Close returned while the handler was parked")
	case <-time.After(20 * time.Millisecond):
	}
}

func returns(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestHandoffCloseWaitsForFlush(t *testing.T) {
	start := outstanding()
	p := newParker()
	var q transport.Handoff
	q.Init(p.handle)
	q.Add(pooled())
	flushed := async(q.Flush)
	<-p.parked
	q.Add(pooled()) // pending behind the parked call
	closed := async(q.Close)
	heldUp(t, closed)
	close(p.release)
	returns(t, closed, "Close")
	returns(t, flushed, "Flush")
	q.Flush() // after Close: no call
	if p.calls != 1 || p.msgs != 1 {
		t.Errorf("handler called %d times with %d messages, want once with 1", p.calls, p.msgs)
	}
	if outstanding() != start {
		t.Errorf("%d pooled buffers outstanding", outstanding()-start)
	}
}

func TestHandoffAddAfterCloseReleases(t *testing.T) {
	start := outstanding()
	var q transport.Handoff
	q.Init(func(batch []transport.Delivery) { t.Error("handler called after Close") })
	q.Close()
	if q.Add(pooled()) {
		t.Error("Add after Close reported true")
	}
	q.Flush()
	if outstanding() != start {
		t.Errorf("%d pooled buffers outstanding", outstanding()-start)
	}
}

func TestHandoffServeReturnsAfterClose(t *testing.T) {
	start := outstanding()
	p := newParker()
	var q transport.Handoff
	q.Init(p.handle)
	served := async(q.Serve)
	q.Add(pooled())
	<-p.parked
	for i := 0; i < 3; i++ {
		q.Add(pooled())
	}
	closed := async(q.Close)
	heldUp(t, closed)
	close(p.release)
	returns(t, closed, "Close")
	returns(t, served, "Serve")
	if p.calls != 1 || p.msgs != 1 {
		t.Errorf("handler called %d times with %d messages, want once with 1", p.calls, p.msgs)
	}
	if outstanding() != start {
		t.Errorf("%d pooled buffers outstanding: what was pending was not released", outstanding()-start)
	}
}
