package reuse

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestPoolHandsBackBySizeClass: an array put back is the next Get's of any
// length it can hold within its class and the one below, a pooled array too
// short for a request stays for a shorter one, and a Get that finds nothing
// allocates a zero array of exactly the length asked for.
func TestPoolHandsBackBySizeClass(t *testing.T) {
	p := New[int](false)
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 100 {
		t.Fatalf("a fresh Get(100) has length %d, capacity %d", len(a), cap(a))
	}
	a[99] = 7
	p.Put(a)
	if p.Reuse(101) != nil || p.Reuse(200) != nil {
		t.Fatal("an array of 100 was handed out for 101 or 200 elements")
	}
	b := p.Get(60) // class 5, below 100's: the class above is searched too
	if unsafe.SliceData(b) != unsafe.SliceData(a) || len(b) != 60 || cap(b) != 100 {
		t.Fatalf("Get(60) after putting back 100: length %d, capacity %d, same array %v", len(b), cap(b), unsafe.SliceData(b) == unsafe.SliceData(a))
	}
	if b[:100][99] != 7 {
		t.Fatal("Get cleared an array of a pool that does not clear")
	}
	b[59] = 7
	p.Put(b)
	if z := p.GetZeroed(64); z[59] != 0 || unsafe.SliceData(z) != unsafe.SliceData(a) {
		t.Fatal("GetZeroed handed out the pooled array uncleared, or not at all")
	}
	if p.Reuse(64) != nil {
		t.Fatal("one array put back was handed out twice")
	}
	p.Put(make([]int, 0))
	if p.Reuse(1) != nil {
		t.Fatal("an array of capacity 0 was kept")
	}
}

// TestClearingPoolKeepsNoObject: a pool that clears zeroes an array when it
// is put back, so a pooled array keeps nothing alive and comes back zero.
func TestClearingPoolKeepsNoObject(t *testing.T) {
	p := New[*int](true)
	a := p.Get(10)
	for i := range a {
		a[i] = new(int)
	}
	p.Put(a[:5]) // the whole capacity is cleared, not just the length
	b := p.Get(10)
	for i, v := range b {
		if v != nil {
			t.Fatalf("element %d of a reused array still points at %p", i, v)
		}
	}
}

// TestDrainDropsEverything: after Drain no pool hands anything out, and a
// drained pool takes arrays back without allocating.
func TestDrainDropsEverything(t *testing.T) {
	p := New[byte](false)
	for range 3 {
		p.Put(make([]byte, 16))
	}
	Drain()
	if p.Reuse(16) != nil {
		t.Fatal("a drained pool handed out an array")
	}
	arrays := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if n := testing.AllocsPerRun(10, func() {
		for _, a := range arrays {
			p.Put(a)
		}
		for range arrays {
			p.Get(16)
		}
		Drain()
	}); n != 0 {
		t.Errorf("putting back and taking three arrays allocated %.0f objects, want none", n)
	}
}

// TestCollectionsDropPooledArrays: an array put back and not taken is gone
// after two collections, as from a sync.Pool, and the ageing behind that
// allocates nothing.
func TestCollectionsDropPooledArrays(t *testing.T) {
	p := New[byte](false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.Put(make([]byte, 1<<10))
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine ages the pools
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
		if p.Reuse(1<<10) == nil {
			break
		}
		Drain()
		if time.Now().After(deadline) {
			t.Fatal("four collections never dropped a pooled array")
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 5 {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if after.NumGC-before.NumGC < 5 {
		t.Fatalf("%d collections, want 5", after.NumGC-before.NumGC)
	}
	if n := after.Mallocs - before.Mallocs; n > 2 {
		t.Errorf("five collections with pools to age allocated %d objects", n)
	}
}
