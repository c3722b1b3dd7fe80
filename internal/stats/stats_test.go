package stats

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

func TestDropAccounting(t *testing.T) {
	var c Counters
	c.Drop(types.DropNoMatch)
	c.Drop(types.DropNoMatch)
	c.Drop(types.DropBadPortal)
	if got := c.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
	if got := c.DroppedFor(types.DropNoMatch); got != 2 {
		t.Errorf("DroppedFor(NoMatch) = %d, want 2", got)
	}
	if got := c.DroppedFor(types.DropEQFull); got != 0 {
		t.Errorf("DroppedFor(EQFull) = %d, want 0", got)
	}
}

func TestDropOutOfRangeIgnored(t *testing.T) {
	var c Counters
	c.Drop(types.DropReason(250))
	if c.Dropped() != 0 {
		t.Error("out-of-range drop reason was counted")
	}
	if c.DroppedFor(types.DropReason(250)) != 0 {
		t.Error("out-of-range DroppedFor nonzero")
	}
}

func TestSendRecvCopy(t *testing.T) {
	var c Counters
	c.Send(100)
	c.Send(50)
	c.Recv(70)
	c.Interrupt()
	c.Ack()
	c.Reply()
	s := c.Snapshot()
	if s.SendMsgs != 2 || s.SendBytes != 150 {
		t.Errorf("send = %d/%d, want 2/150", s.SendMsgs, s.SendBytes)
	}
	if s.RecvMsgs != 1 || s.RecvBytes != 70 {
		t.Errorf("recv = %d/%d, want 1/70", s.RecvMsgs, s.RecvBytes)
	}
	if s.Interrupts != 1 || s.Acks != 1 || s.Replies != 1 {
		t.Errorf("intr/acks/replies = %d/%d/%d", s.Interrupts, s.Acks, s.Replies)
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.Drop(types.DropBadCookie)
	c.Send(10)
	out := c.Snapshot().String()
	if !strings.Contains(out, "dropped=1") || !strings.Contains(out, "bad-cookie=1") {
		t.Errorf("snapshot string missing drop info: %q", out)
	}
}

func TestConcurrentCounters(t *testing.T) {
	var c Counters
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Drop(types.DropNoMatch)
				c.Send(1)
				c.Recv(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Dropped != workers*each || s.SendMsgs != workers*each || s.RecvMsgs != workers*each {
		t.Errorf("lost updates: %+v", s)
	}
}
