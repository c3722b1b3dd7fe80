package experiments

import (
	"strings"
	"testing"
)

// The swarm's shape is checked on counters, not on wall time: the match
// entries it builds, the acks it counts, and which endpoints a hot-set pass
// reaches, read from the endpoints' own receive counters.
func TestSwarmDriver(t *testing.T) {
	const endpoints, hot, msgs = 64, 8, 2000
	s, err := NewSwarm("loopback", endpoints)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.MatchEntries != endpoints*swarmMEs {
		t.Fatalf("%d match entries, want %d", s.MatchEntries, endpoints*swarmMEs)
	}
	received := func() (per []int64, total int64) {
		for _, st := range s.states {
			n := st.Counters().Snapshot().RecvMsgs
			per, total = append(per, n), total+n
		}
		return per, total
	}

	if _, err := s.Measure(msgs, hot); err != nil {
		t.Fatal(err)
	}
	per, total := received()
	if s.Acked != s.Sent || total != int64(s.Sent) || s.Sent < msgs {
		t.Fatalf("hot pass: %d sent, %d acked, %d received", s.Sent, s.Acked, total)
	}
	for i, n := range per {
		if (i < hot) != (n > 0) {
			t.Errorf("hot pass over the first %d endpoints: endpoint %d received %d", hot, i, n)
		}
	}

	if _, err := s.Measure(msgs, endpoints); err != nil {
		t.Fatal(err)
	}
	per, total = received()
	if s.Acked != s.Sent || total != int64(s.Sent) {
		t.Fatalf("uniform pass: %d sent, %d acked, %d received", s.Sent, s.Acked, total)
	}
	for i, n := range per {
		if n == 0 {
			t.Errorf("uniform pass: endpoint %d received nothing", i)
		}
	}
}

// A put that is never acked fails the run, naming the swarm and the count,
// instead of leaving a short acked figure behind.
func TestSwarmUnackedPutFails(t *testing.T) {
	s, err := NewSwarm("loopback", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Endpoint 0 leaves its node: puts to it are dropped there, unacked.
	s.nodes[0].RemoveProcess(s.targets[0].PID)
	err = s.pass(100, 1)
	if err == nil || !strings.Contains(err.Error(), "swarm of 4 endpoints: 100 of 100 puts unacked") {
		t.Fatalf("pass to a departed endpoint: %v", err)
	}
}
