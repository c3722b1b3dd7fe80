package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// The transport probe drives the workload's fabric as a bare
// transport.Network — no Portals on top — with opaque messages of the
// workload's wire size. The sender stamps each message with its send time
// and the benchmark's own delivery handler stamps the arrival, so
// oneway_ns is the transport alone, goroutine hand-off included.

const (
	probeWarm  = 200
	probeMsgs  = 4000
	probeBytes = 64 << 20 // bounds the bytes the probe moves for large messages
)

type arrival struct {
	onewayNs int64
	intact   bool
}

// probeTransport measures the fabric at the workload's message size and
// at the size of a header-only control message (ack, get request).
func probeTransport(f fabricSpec, size int, seed int64, out map[string]float64) (err error) {
	net := f.raw(seed)
	defer func() { err = errors.Join(err, net.Close()) }()

	epoch := time.Now()
	arrivals := make(chan arrival, 1) // one message in flight at a time
	var expect atomic.Pointer[[]byte] // what the next arrival must look like
	sender, err := net.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		return err
	}
	if _, err := net.Attach(2, func(_ types.NID, msg []byte) {
		now := time.Since(epoch).Nanoseconds()
		want := *expect.Load()
		ok := len(msg) == len(want) && len(msg) >= 8 && bytes.Equal(msg[8:], want[8:])
		var sent int64
		if ok {
			sent = int64(binary.LittleEndian.Uint64(msg))
		}
		arrivals <- arrival{onewayNs: now - sent, intact: ok}
	}); err != nil {
		return err
	}

	// pass sends n messages of msgBytes one at a time and returns the
	// per-message send-call and one-way times plus the allocation deltas.
	pass := func(msgBytes, n int) (calls, oneways []float64, mallocs, allocBytes float64, err error) {
		msg := pattern(rand.New(rand.NewSource(seed)), msgBytes)
		expect.Store(&msg)
		timeout := time.NewTimer(opTimeout)
		defer timeout.Stop()
		var ms0, ms1 runtime.MemStats
		for i := -probeWarm; i < n; i++ {
			if i == 0 {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Since(epoch)
			binary.LittleEndian.PutUint64(msg, uint64(t0.Nanoseconds()))
			if err := sender.Send(2, msg); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("probe send: %w", err)
			}
			call := time.Since(epoch) - t0
			select {
			case a := <-arrivals:
				if !a.intact {
					return nil, nil, 0, 0, fmt.Errorf("probe: message %d arrived damaged", i)
				}
				if i >= 0 {
					calls = append(calls, float64(call.Nanoseconds()))
					oneways = append(oneways, float64(a.onewayNs))
				}
			case <-timeout.C:
				return nil, nil, 0, 0, fmt.Errorf("probe: message %d not delivered within %v", i, opTimeout)
			}
		}
		runtime.ReadMemStats(&ms1)
		return calls, oneways, float64(ms1.Mallocs-ms0.Mallocs) / float64(n), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n), nil
	}

	msgBytes := size + wire.HeaderSize
	calls, oneways, mallocs, allocBytes, err := pass(msgBytes, clampIters(probeBytes/msgBytes, 200, probeMsgs))
	if err != nil {
		return err
	}
	out["transport.send_call_ns"] = median(calls)
	out["transport.oneway_ns"] = median(oneways)
	out["transport.allocs_per_msg"] = mallocs
	out["transport.alloc_bytes_per_msg"] = allocBytes
	_, oneways, _, _, err = pass(wire.HeaderSize, probeMsgs)
	if err != nil {
		return err
	}
	out["transport.oneway_ctl_ns"] = median(oneways)
	return nil
}
