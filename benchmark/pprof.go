package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the pprof CPU-profile format (gzipped
// perftools.profiles.Profile protobuf), enough to fold samples by function:
// the module has no dependencies, and `go tool pprof` is not guaranteed to
// be on the path the benchmark runs from.

// stackSample is one profile sample: its stack's function names, leaf
// first (inlined frames expanded), and its value in the profile's last
// sample type (cpu nanoseconds for a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	varnt uint64
	bytes []byte
}

var errTruncated = errors.New("pprof: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits a message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varnt, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field occurrence, packed or not.
func repeatedVarints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varnt}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// parseProfile decodes a (possibly gzipped) pprof profile into samples.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	top, err := readFields(data)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id → name string index
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var raw []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		case 5: // function
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.varnt
				case 2:
					name = x.varnt
				}
			}
			funcName[id] = name
		case 4: // location
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch {
				case x.num == 1:
					id = x.varnt
				case x.num == 4 && x.wire == 2: // line: the first entry is the innermost inlined call
					ls, err := readFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.varnt)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // sample
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, x := range fs {
				if x.num != 1 && x.num != 2 {
					continue
				}
				vs, err := repeatedVarints(x)
				if err != nil {
					return nil, err
				}
				if x.num == 1 {
					s.locs = append(s.locs, vs...)
				} else {
					s.values = append(s.values, vs...)
				}
			}
			raw = append(raw, s)
		}
	}
	out := make([]stackSample, 0, len(raw))
	for _, s := range raw {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: string index %d out of range", idx)
				}
				ss.stack = append(ss.stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "abenet/internal/sim.(*heapScheduler).Pop" or "runtime.mallocgc".
func funcPackage(fn string) string {
	// Receivers and type arguments can themselves contain import paths.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuClasses are the keys foldCPU returns (the cpu_share.* metrics).
var cpuClasses = []string{
	"sim", "channel", "network", "protocol", "dist_rng", "topology",
	"spec_runner", "service_store", "runtime_gc", "runtime_alloc", "other",
}

// packageClass maps this repo's packages onto layers.
var packageClass = map[string]string{
	"abenet/internal/sim":          "sim",
	"abenet/internal/simtime":      "sim",
	"abenet/internal/channel":      "channel",
	"abenet/internal/network":      "network",
	"abenet/internal/clock":        "network",
	"abenet/internal/faults":       "network",
	"abenet/internal/byzantine":    "network",
	"abenet/internal/core":         "protocol",
	"abenet/internal/consensus":    "protocol",
	"abenet/internal/election":     "protocol",
	"abenet/internal/synchronizer": "protocol",
	"abenet/internal/syncnet":      "protocol",
	"abenet/internal/dist":         "dist_rng",
	"abenet/internal/rng":          "dist_rng",
	"abenet/internal/topology":     "topology",
	"abenet/internal/spec":         "spec_runner",
	"abenet/internal/runner":       "spec_runner",
	"abenet/internal/harness":      "spec_runner",
	"abenet/internal/stats":        "spec_runner",
	"abenet/internal/probe":        "spec_runner",
	"abenet/internal/trace":        "spec_runner",
	"abenet/internal/service":      "service_store",
	"abenet/internal/store":        "service_store",
}

// Runtime frames that mark a sample as collector work or allocator work.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.(*mheap).reclaim", "runtime.sweepone",
		"runtime.(*sweepLocked).sweep", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.makechan", "runtime.rawstring",
	}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func hasFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// classify attributes one sample to a layer. A sample whose leaf is in the
// Go runtime is collector time if any frame is a collector entry point,
// else allocator time if any frame is an allocation entry point. Every
// other sample goes to the layer of the nearest frame, from the leaf up,
// that belongs to this repo — so math.Log under rng.ExpFloat64 is dist_rng
// time and a memclr under the calendar scheduler is sim time — and to
// "other" when no frame does (idle scheduler, net/http's own goroutines,
// the benchmark's client code).
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(funcPackage(stack[0])) {
		if hasFrame(stack, gcFrames) {
			return "runtime_gc"
		}
		if hasFrame(stack, allocFrames) {
			return "runtime_alloc"
		}
	}
	for _, fn := range stack {
		if c, ok := packageClass[funcPackage(fn)]; ok {
			return c
		}
	}
	return "other"
}

// foldCPU folds a CPU profile into per-layer shares of the sampled time.
// The shares sum to 1 (all zero for a profile without samples).
func foldCPU(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuClasses))
	for _, c := range cpuClasses {
		shares[c] = 0
	}
	var total float64
	for _, s := range samples {
		shares[classify(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for c := range shares {
			shares[c] /= total
		}
	}
	return shares
}
