package shmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/portals"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// job launches n PEs with a region exposed per the setup func.
func job(t *testing.T, n int) []*PE {
	t.Helper()
	m := portals.NewMachine(portals.Loopback())
	t.Cleanup(func() { m.Close() })
	nis, err := m.LaunchJob(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	pes := make([]*PE, n)
	for r, ni := range nis {
		pe, err := NewPE(ni, r, ids)
		if err != nil {
			t.Fatal(err)
		}
		pes[r] = pe
	}
	return pes
}

func TestPutIntoRemoteRegion(t *testing.T) {
	pes := job(t, 2)
	target := make([]byte, 64)
	if err := pes[1].Expose(7, target); err != nil {
		t.Fatal(err)
	}
	if err := pes[0].Put(1, 7, 8, []byte("one-sided")); err != nil {
		t.Fatal(err)
	}
	// Put is remotely complete on return (it waited for the ack).
	if !bytes.Equal(target[8:17], []byte("one-sided")) {
		t.Errorf("target = %q", target[8:17])
	}
}

func TestGetFromRemoteRegion(t *testing.T) {
	pes := job(t, 2)
	src := []byte("symmetric heap contents")
	if err := pes[1].Expose(9, src); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if err := pes[0].Get(1, 9, 10, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "heap cont" {
		t.Errorf("got %q", buf)
	}
}

func TestPutNBAndFence(t *testing.T) {
	pes := job(t, 2)
	target := make([]byte, 256)
	if err := pes[1].Expose(1, target); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := pes[0].PutNB(1, 1, uint64(i*16), bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pes[0].Fence(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if target[i*16] != byte(i) || target[i*16+15] != byte(i) {
			t.Fatalf("block %d = %d", i, target[i*16])
		}
	}
}

func TestGetBeyondRegionFails(t *testing.T) {
	pes := job(t, 2)
	if err := pes[1].Expose(2, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := pes[0].Get(1, 2, 8, buf); err == nil {
		t.Error("get past end of region succeeded in full")
	}
}

func TestUnknownRegionTimesOutOrErrors(t *testing.T) {
	pes := job(t, 2)
	// No region 42 exposed: the put is dropped at the target; the ack
	// never comes; Fence must not hang forever. Use a goroutine with a
	// deadline.
	pes[0].FenceTimeout = 300 * time.Millisecond
	if err := pes[0].PutNB(1, 42, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pes[0].Fence() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("fence succeeded despite dropped put")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fence hung")
	}
}

func TestWaitArrivals(t *testing.T) {
	pes := job(t, 2)
	region := make([]byte, 32)
	if err := pes[1].Expose(5, region); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = pes[0].Put(1, 5, 0, []byte("a"))
		_ = pes[0].Put(1, 5, 1, []byte("b"))
	}()
	if err := pes[1].WaitArrivals(5, 2); err != nil {
		t.Fatal(err)
	}
	if region[0] != 'a' || region[1] != 'b' {
		t.Errorf("region = %q", region[:2])
	}
}

func TestOneSidedBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pes := job(t, n)
			for _, pe := range pes {
				if err := pe.ExposeBarrier(); err != nil {
					t.Fatal(err)
				}
			}
			// Three consecutive barriers; every PE must pass all three.
			var wg sync.WaitGroup
			errs := make([]error, n)
			for r, pe := range pes {
				wg.Add(1)
				go func(r int, pe *PE) {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						if err := pe.Barrier(); err != nil {
							errs[r] = err
							return
						}
					}
				}(r, pe)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("pe %d: %v", r, err)
				}
			}
		})
	}
}

func TestDistributedCounterPattern(t *testing.T) {
	// The onesided example's core pattern: every PE deposits its rank
	// into a root-owned table slot, then the root reads them all.
	pes := job(t, 4)
	table := make([]byte, 4)
	if err := pes[0].Expose(11, table); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 1; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := pes[r].Put(0, 11, uint64(r), []byte{byte(r * 10)}); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < 4; r++ {
		if table[r] != byte(r*10) {
			t.Errorf("slot %d = %d", r, table[r])
		}
	}
}

func TestInvalidPE(t *testing.T) {
	pes := job(t, 2)
	if err := pes[0].PutNB(9, 0, 0, nil); err == nil {
		t.Error("put to bad PE accepted")
	}
	if err := pes[0].Get(9, 0, 0, nil); err == nil {
		t.Error("get from bad PE accepted")
	}
}
