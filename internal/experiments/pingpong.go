package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs/metrics"
	"repro/portals"
)

// PingPongConfig parameterizes the latency experiment (E3: §3 reports
// "less than 20 µsec for a zero-length ping-pong latency test" for the
// NIC-resident implementation).
type PingPongConfig struct {
	Size  int // payload bytes (0 for the paper's headline number)
	Iters int // round trips to average over
	// Metrics, when non-nil, receives every layer's counters for the
	// machine under test (Machine.RegisterMetrics).
	Metrics *metrics.Registry
}

// pingBits are the match bits of the ping-pong's sinks.
const pingBits = 0x9999

// sink arms portal 0 of ni with the pre-armed target the raw-Portals drivers
// (E3, E8, E12) put into: a persistent entry matching bits from any process
// over buf, remotely managed and truncating. With eqSlots > 0 every put
// posts to a fresh event queue of that size, which is returned; with 0 the
// target is silent.
func sink(ni *portals.NI, bits portals.MatchBits, buf []byte, eqSlots int) (eq portals.Handle, err error) {
	if eqSlots > 0 {
		if eq, err = ni.EQAlloc(eqSlots); err != nil {
			return eq, err
		}
	}
	me, err := ni.MEAttach(0, portals.AnyProcess, bits, 0, portals.Retain, portals.After)
	if err != nil {
		return eq, err
	}
	_, err = ni.MDAttach(me, portals.MD{
		Start:     buf,
		Threshold: portals.ThresholdInfinite,
		Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDTruncate,
		EQ:        eq,
	}, portals.Retain)
	return eq, err
}

// awaitPut consumes events from eq up to and including the next put; an
// overwritten queue is not an error here, the put still arrived. A minute
// without an event is a stalled fabric, not a slow one.
func awaitPut(ni *portals.NI, eq portals.Handle) error {
	for {
		ev, err := ni.EQPoll(eq, time.Minute)
		if errors.Is(err, portals.ErrEQEmpty) {
			return errors.New("experiments: stalled, no put event in a minute")
		}
		if err != nil && !errors.Is(err, portals.ErrEQDropped) {
			return err
		}
		if ev.Type == portals.EventPut {
			return nil
		}
	}
}

// PingPong measures half-round-trip latency for Size-byte Portals puts
// over the given fabric.
func PingPong(fab portals.Fabric, cfg PingPongConfig) (_ time.Duration, err error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	m := portals.NewMachine(fab)
	defer teardown(m, &err)
	a, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return 0, err
	}
	b, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		return 0, err
	}
	if cfg.Metrics != nil {
		m.RegisterMetrics(cfg.Metrics)
	}

	aBuf, bBuf := make([]byte, cfg.Size), make([]byte, cfg.Size)
	aEQ, err := sink(a, pingBits, aBuf, 64)
	if err != nil {
		return 0, err
	}
	bEQ, err := sink(b, pingBits, bBuf, 64)
	if err != nil {
		return 0, err
	}

	send := func(ni *portals.NI, buf []byte, to portals.ProcessID) error {
		md, err := ni.MDBind(portals.MD{Start: buf, Threshold: 1}, portals.Unlink)
		if err != nil {
			return err
		}
		return ni.Put(md, portals.NoAckReq, to, 0, 0, pingBits, 0)
	}

	// Echo side.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < cfg.Iters; i++ {
			if err := awaitPut(b, bEQ); err != nil {
				done <- err
				return
			}
			if err := send(b, bBuf, a.ID()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Warm the path once before timing (lazy link/connection setup).
	start := time.Now()
	for i := 0; i < cfg.Iters; i++ {
		if err := send(a, aBuf, b.ID()); err != nil {
			return 0, err
		}
		if err := awaitPut(a, aEQ); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := <-done; err != nil {
		return 0, err
	}
	return elapsed / time.Duration(2*cfg.Iters), nil
}

// BandwidthPoint is one point of the E8 curve.
type BandwidthPoint struct {
	Size    int
	MBps    float64
	Elapsed time.Duration
}

// Bandwidth measures one-directional throughput for messages of the
// given size streamed over raw Portals puts (E8: §3's packet-pipelining
// claim, and the transport's eager/rendezvous crossover). A non-positive
// count selects 64.
func Bandwidth(fab portals.Fabric, size, count int) (_ BandwidthPoint, err error) {
	if count <= 0 {
		count = 64
	}
	m := portals.NewMachine(fab)
	defer teardown(m, &err)
	tx, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return BandwidthPoint{}, err
	}
	rx, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		return BandwidthPoint{}, err
	}
	eq, err := sink(rx, 1, make([]byte, size), count+8)
	if err != nil {
		return BandwidthPoint{}, err
	}

	payload := make([]byte, size)
	md, err := tx.MDBind(portals.MD{Start: payload, Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		return BandwidthPoint{}, err
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		if err := tx.Put(md, portals.NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
			return BandwidthPoint{}, err
		}
	}
	for seen := 0; seen < count; seen++ {
		if err := awaitPut(rx, eq); err != nil {
			return BandwidthPoint{}, fmt.Errorf("bandwidth stream at %d/%d: %w", seen, count, err)
		}
	}
	elapsed := time.Since(start)
	bytes := float64(size) * float64(count)
	return BandwidthPoint{
		Size:    size,
		MBps:    bytes / elapsed.Seconds() / 1e6,
		Elapsed: elapsed,
	}, nil
}
