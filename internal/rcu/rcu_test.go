package rcu

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestChunkOfRoundTrip(t *testing.T) {
	// Every index maps into a chunk at an offset within that chunk's size,
	// chunks tile the index space contiguously, and the mapping is monotone.
	next := uint32(0)
	for c := 0; c < 12; c++ {
		size := uint32(minChunk << uint(c))
		if got := chunkStart(c); got != next {
			t.Fatalf("chunkStart(%d) = %d, want %d", c, got, next)
		}
		for _, off := range []uint32{0, 1, size - 1} {
			idx := next + off
			gc, goff := chunkOf(idx)
			if gc != c || goff != off {
				t.Fatalf("chunkOf(%d) = (%d,%d), want (%d,%d)", idx, gc, goff, c, off)
			}
		}
		next += size
	}
}

func TestTableAllocLookupRelease(t *testing.T) {
	var tab Table[int]
	tab.Init(3)
	vals := []int{10, 20, 30}
	type coord struct{ idx, gen uint32 }
	var cs []coord
	for i := range vals {
		idx, gen, ok := tab.Alloc(&vals[i])
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		cs = append(cs, coord{idx, gen})
	}
	if _, _, ok := tab.Alloc(&vals[0]); ok {
		t.Fatal("alloc beyond limit succeeded")
	}
	if n := tab.Count(); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	for i, c := range cs {
		v, ok := tab.Lookup(c.idx, c.gen)
		if !ok || *v != vals[i] {
			t.Fatalf("lookup %d: got %v, %v", i, v, ok)
		}
	}
	// Wrong generation misses.
	if _, ok := tab.Lookup(cs[0].idx, cs[0].gen+1); ok {
		t.Fatal("lookup with future generation hit")
	}
	// Release, then the old handle must miss and the slot reuses with a
	// bumped generation (ABA detection).
	v, ok := tab.Release(cs[1].idx, cs[1].gen)
	if !ok || *v != 20 {
		t.Fatalf("release: got %v, %v", v, ok)
	}
	if _, ok := tab.Release(cs[1].idx, cs[1].gen); ok {
		t.Fatal("double release succeeded")
	}
	if _, ok := tab.Lookup(cs[1].idx, cs[1].gen); ok {
		t.Fatal("stale handle resolved after release")
	}
	x := 99
	idx, gen, ok := tab.Alloc(&x)
	if !ok || idx != cs[1].idx {
		t.Fatalf("reuse: idx = %d, want %d", idx, cs[1].idx)
	}
	if gen == cs[1].gen {
		t.Fatal("generation not bumped on reuse")
	}
	if _, ok := tab.Lookup(cs[1].idx, cs[1].gen); ok {
		t.Fatal("stale handle resolved after reuse (ABA)")
	}
	if v, ok := tab.Lookup(idx, gen); !ok || *v != 99 {
		t.Fatalf("fresh handle: got %v, %v", v, ok)
	}
}

func TestTableGrowth(t *testing.T) {
	var tab Table[uint32]
	const n = 10_000 // spans ~9 chunks
	vals := make([]uint32, n)
	gens := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
		idx, gen, ok := tab.Alloc(&vals[i])
		if !ok || idx != uint32(i) {
			t.Fatalf("alloc %d: idx=%d ok=%v", i, idx, ok)
		}
		gens[i] = gen
	}
	for i := 0; i < n; i += 997 {
		v, ok := tab.Lookup(uint32(i), gens[i])
		if !ok || *v != uint32(i) {
			t.Fatalf("lookup %d after growth: %v, %v", i, v, ok)
		}
	}
	seen := 0
	tab.Each(func(v *uint32) { seen++ })
	if seen != n {
		t.Fatalf("Each visited %d, want %d", seen, n)
	}
}

// TestTableLookupUnlinkRace is the randomized RCU race suite: reader
// goroutines spin resolving a moving set of handles while a writer
// allocates and releases slots. The invariant — readers see either the
// generation they asked for (with its value intact) or a miss, never a
// freed or reincarnated value — is checked on every hit. Run under -race
// this also proves the lookup path publishes values safely.
func TestTableLookupUnlinkRace(t *testing.T) {
	type entry struct {
		idx, gen uint32
		payload  uint64 // unique per incarnation, so a hit can prove it saw the right one
	}
	var tab Table[uint64]
	const slots = 64
	live := make([]atomic.Pointer[entry], slots) // writer publishes coordinates here
	stop := make(chan struct{})
	var wg sync.WaitGroup

	readers := 4
	if testing.Short() {
		readers = 2
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := live[rnd.Intn(slots)].Load()
				if e == nil {
					continue
				}
				// The writer may have released this incarnation already —
				// a miss is fine; a hit must carry the matching payload.
				if v, ok := tab.Lookup(e.idx, e.gen); ok {
					if *v != e.payload {
						t.Errorf("lookup(%d,%d) hit wrong incarnation: got %x want %x",
							e.idx, e.gen, *v, e.payload)
						return
					}
				}
			}
		}(int64(r))
	}

	iters := 50_000
	if testing.Short() {
		iters = 5_000
	}
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < iters; i++ {
		s := rnd.Intn(slots)
		if e := live[s].Load(); e != nil {
			if _, ok := tab.Release(e.idx, e.gen); !ok {
				t.Fatalf("release of live (%d,%d) failed", e.idx, e.gen)
			}
			live[s].Store(nil)
		} else {
			// The value must be complete before Alloc publishes it —
			// matching how core constructs entries fully before handing
			// them to the table.
			payload := uint64(i)<<8 | uint64(s)
			p := new(uint64)
			*p = payload
			idx, gen, ok := tab.Alloc(p)
			if !ok {
				t.Fatal("alloc failed")
			}
			live[s].Store(&entry{idx: idx, gen: gen, payload: payload})
		}
		if i%1024 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

func TestMapCOW(t *testing.T) {
	var m Map[int, string]
	if _, ok := m.Get(1); ok {
		t.Fatal("zero map has entries")
	}
	if !m.Insert(1, "a") || !m.Insert(2, "b") {
		t.Fatal("insert failed")
	}
	if m.Insert(1, "dup") {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := m.Get(1); !ok || v != "a" {
		t.Fatalf("get 1: %q, %v", v, ok)
	}
	m.Set(1, "replaced")
	if v, ok := m.Get(1); !ok || v != "replaced" {
		t.Fatalf("get 1 after Set: %q, %v", v, ok)
	}
	m.Set(3, "new")
	if v, ok := m.Get(3); !ok || v != "new" {
		t.Fatalf("get 3 after Set: %q, %v", v, ok)
	}
	if !m.Delete(3) {
		t.Fatal("delete of Set entry failed")
	}
	if !m.Delete(2) || m.Delete(2) {
		t.Fatal("delete semantics wrong")
	}
	m.Update(func(mm map[int]string) {
		for i := 10; i < 20; i++ {
			mm[i] = "bulk"
		}
	})
	if m.Len() != 11 {
		t.Fatalf("len = %d, want 11", m.Len())
	}
	seen := 0
	m.Range(func(int, string) bool { seen++; return true })
	if seen != 11 {
		t.Fatalf("range visited %d, want 11", seen)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("clear left entries")
	}
}

// TestMapReadersDuringWrites runs lock-free readers against a serialized
// writer under -race: each Get must observe a complete epoch.
func TestMapReadersDuringWrites(t *testing.T) {
	var m Map[int, int]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < 8; k++ {
					if v, ok := m.Get(k); ok && v != k*k {
						t.Errorf("get(%d) = %d, want %d", k, v, k*k)
						return
					}
				}
			}
		}()
	}
	iters := 2_000
	if testing.Short() {
		iters = 200
	}
	for i := 0; i < iters; i++ {
		k := i % 8
		m.Delete(k)
		m.Insert(k, k*k)
	}
	close(stop)
	wg.Wait()
}

func TestGuardsQuiescence(t *testing.T) {
	var g Guards
	if !g.Quiescent() {
		t.Fatal("fresh guards not quiescent")
	}
	g.Enter()
	if g.Quiescent() {
		t.Fatal("quiescent while a reader is inside")
	}
	g.Exit()
	if !g.Quiescent() {
		t.Fatal("not quiescent after exit")
	}
	// Overlapping windows: quiescent only once the last one closes.
	g.Enter()
	g.Enter()
	if g.Quiescent() {
		t.Fatal("quiescent with two readers inside")
	}
	g.Exit()
	if g.Quiescent() {
		t.Fatal("quiescent with one reader inside")
	}
	g.Exit()
	if !g.Quiescent() {
		t.Fatal("not quiescent after both exits")
	}
}

// TestGuardsPadding: in and out share no 64-byte line with whatever field
// sits next to a Guards, wherever the struct lands. A full line of pad
// before in and after out guarantees that at any alignment. Every put
// writes both counters while delivery lanes read the State fields around
// them; without the pads, whether the two share a line depends on where
// the fields before them happen to end.
func TestGuardsPadding(t *testing.T) {
	var g Guards
	const line = 64
	if unsafe.Offsetof(g.out) < unsafe.Offsetof(g.in) {
		t.Fatal("out precedes in: the bounds below check the wrong ends")
	}
	if before := unsafe.Offsetof(g.in); before < line {
		t.Errorf("%d bytes precede in: a field before a Guards can share its line", before)
	}
	if after := unsafe.Sizeof(g) - unsafe.Offsetof(g.out) - unsafe.Sizeof(g.out); after < line {
		t.Errorf("%d bytes follow out: a field after a Guards can share its line", after)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	var tab Table[uint64]
	const n = 1 << 16
	vals := make([]uint64, n)
	gens := make([]uint32, n)
	for i := range vals {
		vals[i] = uint64(i)
		_, gen, _ := tab.Alloc(&vals[i])
		gens[i] = gen
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint32(i) & (n - 1)
		if _, ok := tab.Lookup(idx, gens[idx]); !ok {
			b.Fatal("miss")
		}
	}
}

// TestTableIndexBounds: indices past the chunk geometry — the top 16
// values of the uint32 space, including 0xFFFFFFFF — must miss, never
// panic: Lookup's index arrives verbatim from a wire-decoded handle, so
// it is peer-controlled input.
func TestTableIndexBounds(t *testing.T) {
	if got := chunkStart(maxChunks); got != maxSlots {
		t.Fatalf("chunk geometry: chunkStart(%d) = %d, want maxSlots = %d", maxChunks, got, uint32(maxSlots))
	}
	var tab Table[int]
	v := 5
	if _, _, ok := tab.Alloc(&v); !ok {
		t.Fatal("alloc failed")
	}
	for _, idx := range []uint32{maxSlots, maxSlots + 1, 0xFFFFFFF0, 0xFFFFFFFF} {
		for _, gen := range []uint32{0, 1, 0x7FFFFFFF} {
			if _, ok := tab.Lookup(idx, gen); ok {
				t.Fatalf("Lookup(%#x, %d) hit an out-of-range index", idx, gen)
			}
			if _, ok := tab.Release(idx, gen); ok {
				t.Fatalf("Release(%#x, %d) freed an out-of-range index", idx, gen)
			}
		}
	}
	// The largest in-range index lands in a never-allocated chunk: a miss,
	// not a panic.
	if _, ok := tab.Lookup(maxSlots-1, 0); ok {
		t.Fatal("Lookup of a never-allocated high index hit")
	}
}
