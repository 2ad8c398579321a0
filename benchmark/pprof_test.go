package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A tiny encoder for the fixture: just enough protobuf to write a profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(field int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.Bytes())
}

// fixtureProfile is a CPU profile with seven samples. Strings: 0 "", then
// the function names below from index 1; function and location ids equal
// the string index, except location 20, which stands for
// sim.(*Kernel).execute with heapScheduler.Pop inlined into it.
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{"",
		"abenet/internal/sim.(*heapScheduler).Pop", // 1
		"abenet/internal/sim.(*Kernel).execute",    // 2
		"runtime.mallocgc",                         // 3
		"abenet/internal/network.New",              // 4
		"runtime.gcBgMarkWorker",                   // 5
		"math.Log",                                 // 6
		"abenet/internal/rng.(*Source).ExpFloat64", // 7
		"runtime.scanobject",                       // 8
		"runtime.memclrNoHeapPointers",             // 9
		"abenet/internal/store.(*Disk[go.shape.*abenet/internal/service.Result]).Put", // 10
		"net/http.(*conn).serve", // 11
	}
	var prof pb
	for _, typ := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type: samples/count, cpu/nanoseconds
		var vt pb
		vt.uint(1, typ[0])
		vt.uint(2, typ[1])
		prof.bytes(1, vt.Bytes())
	}
	sample := func(ns uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, ns)
		prof.bytes(2, s.Bytes())
	}
	sample(40, 20, 2)    // Pop inlined into execute (location 20), under execute → sim
	sample(20, 3, 4)     // mallocgc under network.New → runtime_alloc
	sample(10, 8, 5)     // scanobject under gcBgMarkWorker → runtime_gc
	sample(15, 6, 7, 2)  // math.Log under rng under sim → dist_rng
	sample(5, 9, 1, 2)   // memclr under the scheduler → sim
	sample(6, 3, 10, 11) // mallocgc under Disk.Put → runtime_alloc
	sample(4, 11)        // net/http alone → other
	for id := uint64(1); id < uint64(len(names)); id++ {
		var line, loc, fn pb
		line.uint(1, id)
		loc.uint(1, id)
		loc.bytes(4, line.Bytes())
		prof.bytes(4, loc.Bytes())
		fn.uint(1, id)
		fn.uint(2, id)
		prof.bytes(5, fn.Bytes())
	}
	var inlined, outer, loc pb // location 20: Pop (innermost, first) inlined into execute
	inlined.uint(1, 1)
	outer.uint(1, 2)
	loc.uint(1, 20)
	loc.bytes(4, inlined.Bytes())
	loc.bytes(4, outer.Bytes())
	prof.bytes(4, loc.Bytes())
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestParseAndFoldProfile(t *testing.T) {
	samples, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(samples))
	}
	if got := samples[0].stack; len(got) != 3 || got[0] != "abenet/internal/sim.(*heapScheduler).Pop" || got[1] != "abenet/internal/sim.(*Kernel).execute" {
		t.Errorf("inlined location expanded to %v", got)
	}
	if samples[0].value != 40 {
		t.Errorf("sample value %d, want the last sample type's 40", samples[0].value)
	}
	shares := foldCPU(samples)
	want := map[string]float64{
		"sim": 45, "runtime_alloc": 26, "runtime_gc": 10, "dist_rng": 15, "other": 4,
	}
	var sum float64
	for _, class := range cpuClasses {
		got := shares[class]
		sum += got
		if math.Abs(got-want[class]/100) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", class, got, want[class]/100)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if len(shares) != len(cpuClasses) {
		t.Errorf("fold returned %d classes, want %d", len(shares), len(cpuClasses))
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"abenet/internal/sim.(*heapScheduler).Pop": "abenet/internal/sim",
		"abenet/internal/sim.(*Kernel).Run.func1":  "abenet/internal/sim",
		"runtime.mallocgc":                         "runtime",
		"main.main":                                "main",
		"abenet/internal/store.(*Disk[go.shape.*abenet/internal/service.Result]).Put": "abenet/internal/store",
		"slices.SortFunc[go.shape.[]float64,go.shape.float64]":                        "slices",
		"internal/runtime/maps.(*Map).getWithKey":                                     "internal/runtime/maps",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0x7f, 0x01}); err == nil {
		t.Error("truncated message parsed without error")
	}
}
