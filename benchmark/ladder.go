package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/types"
	"repro/internal/wire"
)

// The layer ladder walks one message down the stack with the benchmark
// playing NIC: StartPut → Header.Decode → target HandleIncomingInto →
// initiator HandleIncomingInto (ack), then the same for a get and its
// reply. No goroutines, no transport: each row is one layer's own cost at
// the workload's message size and match-list shape.

// ladderShape is the target side of a workload as the ladder rebuilds it.
type ladderShape struct {
	endpoints int  // target processes
	mes       int  // match entries (one descriptor each) per endpoint
	targetEQ  bool // target descriptors log to an event queue
}

// batch is how many calls are timed together when one call is too short
// for the clock (sub-100 ns rows).
const batch = 1024

// ladderBytes bounds the bytes the put/get rows move, which sets the
// iteration count for large messages.
const ladderBytes = 256 << 20

func clampIters(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

type ladderEnd struct {
	state *core.State
	sink  []byte
	eq    types.Handle
}

// runLadder measures the core, wire and eventq rows. out receives metric
// name → p50 in ns.
func runLadder(shape ladderShape, size int, seed int64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	anyProc := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}

	ini := core.NewState(types.ProcessID{NID: 1, PID: 1}, types.Limits{}, nil, nil)
	defer ini.Close()
	initEQ, err := ini.EQAlloc(64)
	if err != nil {
		return err
	}
	src := pattern(rng, size)
	land := make([]byte, size)
	putMD, err := ini.MDBind(core.MD{Start: src, Threshold: types.ThresholdInfinite, EQ: initEQ}, types.Retain)
	if err != nil {
		return err
	}
	getMD, err := ini.MDBind(core.MD{Start: land, Threshold: types.ThresholdInfinite, EQ: initEQ}, types.Retain)
	if err != nil {
		return err
	}

	limits := types.Limits{MaxMEs: shape.mes + 1, MaxMDs: shape.mes + 1, MaxEQs: 1, MaxACEntries: 2, MaxPtlIndex: 1}
	ends := make([]ladderEnd, shape.endpoints)
	defer func() {
		for _, e := range ends {
			if e.state != nil {
				e.state.Close()
			}
		}
	}()
	for i := range ends {
		st := core.NewState(types.ProcessID{NID: types.NID(2 + i%16), PID: types.PID(1 + i/16)}, limits, nil, nil)
		ends[i].state = st
		e := ladderEnd{state: st, sink: pattern(rng, size)}
		if shape.targetEQ {
			if e.eq, err = st.EQAlloc(64); err != nil {
				return err
			}
		}
		for j := 0; j < shape.mes; j++ {
			me, err := st.MEAttach(0, anyProc, types.MatchBits(j), 0, types.Retain, types.After)
			if err != nil {
				return err
			}
			if _, err := st.MDAttach(me, core.MD{
				Start: e.sink, Threshold: types.ThresholdInfinite, EQ: e.eq,
				Options: types.MDOpPut | types.MDOpGet | types.MDManageRemote,
			}, types.Retain); err != nil {
				return err
			}
		}
		ends[i] = e
	}
	drain := func(st *core.State, eq types.Handle) {
		if !eq.IsValid() {
			return
		}
		for {
			if _, err := st.EQGet(eq); err != nil {
				return
			}
		}
	}

	iters := clampIters(ladderBytes/(size+wire.HeaderSize), 2_000, 50_000)
	rows := map[string][]float64{}
	add := func(name string, t0 time.Time) {
		rows[name] = append(rows[name], float64(time.Since(t0).Nanoseconds()))
	}
	var hdr wire.Header
	var outs []core.Outbound
	// respond feeds a response message back into the initiator and times it.
	respond := func(row string, resp *core.Outbound) error {
		if err := hdr.Decode(resp.Msg); err != nil {
			return err
		}
		t := time.Now()
		ini.HandleIncomingInto(&hdr, resp.Msg[wire.HeaderSize:], nil)
		add(row, t)
		resp.Recycle()
		return nil
	}
	for i := 0; i < iters; i++ {
		e := &ends[rng.Intn(len(ends))]
		bits := types.MatchBits(rng.Intn(shape.mes))
		stamp(src, uint64(i))

		t := time.Now()
		put, err := ini.StartPut(putMD, types.AckReq, e.state.Self(), 0, 0, bits, 0)
		if err != nil {
			return err
		}
		add("core.start_put_ns", t)
		if err := hdr.Decode(put.Msg); err != nil {
			return err
		}
		t = time.Now()
		outs = e.state.HandleIncomingInto(&hdr, put.Msg[wire.HeaderSize:], outs[:0])
		add("core.handle_put_ns", t)
		put.Recycle()
		if len(outs) != 1 || !bytes.Equal(e.sink, src) {
			return fmt.Errorf("ladder put %d: %d responses, sink match %v", i, len(outs), bytes.Equal(e.sink, src))
		}
		if err := respond("core.handle_ack_ns", &outs[0]); err != nil {
			return err
		}

		t = time.Now()
		get, err := ini.StartGet(getMD, e.state.Self(), 0, 0, bits, 0)
		if err != nil {
			return err
		}
		add("core.start_get_ns", t)
		if err := hdr.Decode(get.Msg); err != nil {
			return err
		}
		t = time.Now()
		outs = e.state.HandleIncomingInto(&hdr, nil, outs[:0])
		add("core.handle_get_ns", t)
		get.Recycle()
		if len(outs) != 1 {
			return fmt.Errorf("ladder get %d: %d responses", i, len(outs))
		}
		if err := respond("core.handle_reply_ns", &outs[0]); err != nil {
			return err
		}
		if !bytes.Equal(land, e.sink) {
			return fmt.Errorf("ladder get %d: reply does not match the target's memory", i)
		}
		drain(ini, initEQ)
		drain(e.state, e.eq)
	}
	if dropped := ini.Counters().Dropped(); dropped != 0 {
		return fmt.Errorf("ladder: initiator dropped %d messages", dropped)
	}
	for name, v := range rows {
		out[name] = median(v)
	}

	// wire: encode and decode the put header, in batches.
	put := wire.NewPut(ini.Self(), ends[0].state.Self(), 0, 0, 1, 0, putMD, uint64(size), types.AckReq)
	buf := make([]byte, wire.HeaderSize)
	out["wire.encode_ns"] = batched(64, func() {
		for i := 0; i < batch; i++ {
			put.Encode(buf)
		}
	})
	var decodeErr error
	out["wire.decode_ns"] = batched(64, func() {
		for i := 0; i < batch; i++ {
			if err := hdr.Decode(buf); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return decodeErr
	}

	// eventq: uncontended post and get on a ring that never fills.
	q := eventq.New(2 * batch)
	ev := eventq.Event{Type: types.EventPut, MLength: uint64(size)}
	var posts, gets []float64
	for r := 0; r < 64; r++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			q.Post(ev)
		}
		mid := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := q.Get(); err != nil {
				return fmt.Errorf("ladder eventq get: %w", err)
			}
		}
		end := time.Now()
		posts = append(posts, float64(mid.Sub(t).Nanoseconds())/batch)
		gets = append(gets, float64(end.Sub(mid).Nanoseconds())/batch)
	}
	out["eventq.post_ns"], out["eventq.get_ns"] = median(posts), median(gets)
	return pollWake(out)
}

// batched times fn, which makes `batch` calls, `rounds` times and returns
// the median cost of one call in ns.
func batched(rounds int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t := time.Now()
		fn()
		per[r] = float64(time.Since(t).Nanoseconds()) / batch
	}
	return median(per)
}

// pollWake measures the hand-off every blocking completion pays — Post on
// one goroutine until a Poll blocked on another returns — and what that
// Poll allocates. Two goroutines bounce an event between two queues, the
// way the two sides of a ping-pong do, so both stay as warm as they are in
// the workloads; one hand-off is half a round trip.
func pollWake(out map[string]float64) error {
	const rounds = 20_000
	there, back := eventq.New(16), eventq.New(16)
	ev := eventq.Event{Type: types.EventPut}
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := there.Poll(opTimeout); err != nil {
				echoed <- fmt.Errorf("ladder poll echo %d: %w", i, err)
				return
			}
			back.Post(ev)
		}
		echoed <- nil
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rtts := make([]float64, 0, rounds)
	var err error
	for i := 0; i < rounds && err == nil; i++ {
		t := time.Now()
		there.Post(ev)
		if _, err = back.Poll(opTimeout); err != nil {
			err = fmt.Errorf("ladder poll %d: %w", i, err)
			there.Close() // release the echo side
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds()))
	}
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	out["eventq.poll_wake_ns"] = median(rtts) / 2
	out["eventq.poll_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / (2 * rounds)
	return nil
}

// calibrate times a fixed pure-CPU kernel, as a witness of how fast the
// machine was during this run.
func calibrate() float64 {
	per := make([]float64, 32)
	for r := range per {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink.Store(x)
		per[r] = float64(time.Since(t).Nanoseconds())
	}
	return median(per)
}

// calibSink keeps the calibration loop's result alive.
var calibSink atomic.Uint64
