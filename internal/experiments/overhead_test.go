package experiments

import (
	"testing"
	"time"

	"repro/portals"
)

// §5.1/§5.3: the interrupt-driven implementation charges the host per
// message; the NIC-offload implementation does not. Under the same
// incoming stream, the host compute loop must slow down measurably more
// with interrupts than without.
func TestReceiveOverheadInterruptVsOffload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	cfg := OverheadConfig{ComputeIters: 8000, MsgSize: 1024, MsgGap: 50 * time.Microsecond}

	off, err := ReceiveOverhead(portals.NICOffload, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	intr, err := ReceiveOverhead(portals.HostInterrupt, 20*time.Microsecond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("offload:   idle=%v loaded=%v slowdown=%.1f%% msgs=%d intr=%d",
		off.IdleCompute, off.LoadedCompute, off.SlowdownPct, off.Messages, off.Interrupts)
	t.Logf("interrupt: idle=%v loaded=%v slowdown=%.1f%% msgs=%d intr=%d",
		intr.IdleCompute, intr.LoadedCompute, intr.SlowdownPct, intr.Messages, intr.Interrupts)

	if off.Interrupts != 0 {
		t.Errorf("offload model took %d interrupts", off.Interrupts)
	}
	if intr.Interrupts == 0 || intr.Interrupts != intr.Messages {
		t.Errorf("interrupt model: %d interrupts for %d messages", intr.Interrupts, intr.Messages)
	}
	if off.Messages < minLoadedMsgs || intr.Messages < minLoadedMsgs {
		t.Fatalf("loaded runs saw %d and %d messages, want at least %d", off.Messages, intr.Messages, minLoadedMsgs)
	}
	// Per-message interrupt cost is host CPU the offloaded NIC does not take
	// (ReceiveOverhead gives the host one CPU at any GOMAXPROCS).
	if intr.SlowdownPct <= off.SlowdownPct {
		t.Errorf("interrupt slowdown (%.1f%%) not above offload slowdown (%.1f%%)",
			intr.SlowdownPct, off.SlowdownPct)
	}
}
