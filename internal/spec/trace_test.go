package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"abenet/internal/allocbudget"
	"abenet/internal/golden"
	"abenet/internal/runner"
	"abenet/internal/trace"
)

// TestRoundTripTrace: the codec identity holds for a traced spec, the
// decoded spec builds the trace config the JSON describes, and — the cache
// soundness pin — the trace block never changes the scenario hash.
func TestRoundTripTrace(t *testing.T) {
	s := &Spec{
		Version: Version,
		Env: EnvSpec{
			N:     8,
			Seed:  1,
			Trace: &trace.Config{MaxEvents: 5000},
		},
		Protocol: protoSpec(t, runner.Election{}),
	}
	roundTrip(t, s)

	env, err := s.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil || env.Trace.MaxEvents != 5000 {
		t.Fatalf("built trace config = %+v", env.Trace)
	}

	// Tracing is excluded from scenario identity: a traced spec hashes
	// identically to the same spec without the block. (The serving layer
	// keys cached payloads on (hash, seed, trace fingerprint), so the
	// exclusion is safe there too — see service.traceKey.)
	plain := *s
	plain.Env.Trace = nil
	h1, _ := s.Hash()
	h2, _ := plain.Hash()
	if h1 != h2 {
		t.Fatalf("trace block changed the hash: %q vs %q", h1, h2)
	}
	x1, _ := s.ExecutionHash()
	x2, _ := plain.ExecutionHash()
	if x1 != x2 {
		t.Fatalf("trace block changed the execution hash: %q vs %q", x1, x2)
	}
}

// TestTraceValidation pins the decode-time rejections — a negative cap and
// trace+sweep — and that a trace block on itai-rodeh-sync validates: every
// registered protocol runs on the kernel and traces.
func TestTraceValidation(t *testing.T) {
	negative := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &trace.Config{MaxEvents: -1}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative trace cap accepted")
	}

	lockStep := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.ItaiRodehSync{}),
	}
	if err := lockStep.Validate(); err != nil {
		t.Fatalf("trace on itai-rodeh-sync: Validate = %v", err)
	}

	withSweep := &Spec{
		Version:  Version,
		Env:      EnvSpec{Seed: 1, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.Election{}),
		Sweep:    &SweepSpec{Xs: []float64{8, 16}, Repetitions: 2},
	}
	if err := withSweep.Validate(); err == nil {
		t.Fatal("trace+sweep accepted")
	}
}

// TestTracedSpecRunCarriesTrace: the spec door returns the exported trace
// on the report, causally chained down to the decision event.
func TestTracedSpecRunCarriesTrace(t *testing.T) {
	s := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 6, Seed: 3, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || len(rep.Trace.Events) == 0 {
		t.Fatal("traced spec run returned no trace")
	}
	if rep.Trace.Decision == 0 {
		t.Fatal("election trace has no decision event")
	}
}

// tracePins are the scenario shapes TestTraceBytesPinned renders. The
// sha256 of each export format in testdata/trace_bytes.golden was recorded at
// the commit before trace.Event and trace.ExportEvent became one type: a
// persisted or streamed trace must not change by a byte when the recorder's
// internals do.
var tracePins = []struct{ name, doc string }{
	{
		name: "ring",
		doc:  `{"version":1,"env":{"n":16,"seed":1,"trace":{}},"protocol":{"name":"election"}}`,
	},
	{
		name: "capped-ring",
		doc:  `{"version":1,"env":{"n":16,"seed":1,"trace":{"max_events":60}},"protocol":{"name":"election","options":{"A0":0.3}}}`,
	},
	{
		name: "arq-hypercube-processing",
		doc: `{"version":1,"env":{"topology":{"name":"hypercube","params":{"dim":3}},
			"links":{"name":"arq","params":{"p":0.5,"slot":0.5}},"delta":1,
			"clocks":{"name":"wandering","params":{"low":1,"high":1.5,"segment_mean":10}},
			"processing":{"name":"exponential","params":{"mean":0.05}},"seed":7,"trace":{}},
			"protocol":{"name":"election","options":{"TickInterval":1}}}`,
	},
	{
		name: "loss-churn",
		doc: `{"version":1,"env":{"n":8,"seed":11,"horizon":300,"faults":{"loss":0.1,"duplicate":0.02,
			"crash_rate":0.01,"recover_rate":0.1,"events":[
			{"at":2,"kind":"link-down","from":2,"to":3},{"at":15,"kind":"link-up","from":2,"to":3},
			{"at":10,"kind":"partition","group":[0,1,2,3]},{"at":40,"kind":"heal","group":[0,1,2,3]}]},
			"trace":{}},"protocol":{"name":"election"}}`,
	},
	{
		name: "ben-or-radio",
		doc: `{"version":1,"env":{"topology":{"name":"complete","params":{"n":6}},"seed":1,"horizon":20000,
			"local_broadcast":true,"trace":{}},
			"protocol":{"name":"ben-or","options":{"F":1,"Init":"half","Coin":"common"}}}`,
	},
	{
		name: "chang-roberts",
		doc: `{"version":1,"env":{"n":12,"delay":{"name":"pareto","params":{"mean":1,"alpha":1.5}},
			"clocks":{"name":"uniform","params":{"low":1,"high":2}},"seed":3,"trace":{}},
			"protocol":{"name":"chang-roberts","options":{"Arrangement":0}}}`,
	},
	{
		name: "synchronized-election",
		doc: `{"version":1,"env":{"topology":{"name":"biring","params":{"n":6}},"seed":5,"horizon":5000,"trace":{}},
			"protocol":{"name":"synchronized-election","options":{"Kind":2}}}`,
	},
}

// parentExport is a trace.Export exactly as the parent commit's
// json.Marshal wrote it (one event of every kind, a hop counter, a dropped
// count): what a store directory written before the upgrade holds.
const parentExport = `{"events":[` +
	`{"id":1,"lamport":1,"at":0,"kind":"send","from":0,"to":1,"payload":"{Hop:1 ID:7}","hop":1},` +
	`{"id":2,"parent":1,"lamport":2,"at":0.75,"kind":"deliver","from":0,"to":1,"payload":"{Hop:1 ID:7}","hop":1},` +
	`{"id":3,"parent":2,"lamport":3,"at":1.75,"kind":"timer","from":1,"to":0},` +
	`{"id":5,"parent":3,"lamport":4,"at":1.75,"kind":"decision","from":1,"to":0,"payload":"leader elected"}` +
	`],"dropped":1,"decision":5}`

func TestTraceBytesPinned(t *testing.T) {
	lines := make([]string, len(tracePins))
	for i, pin := range tracePins {
		t.Run(pin.name, func(t *testing.T) {
			s, err := DecodeBytes([]byte(pin.doc))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trace == nil || len(rep.Trace.Events) < 20 {
				t.Fatalf("trace too small to pin anything: %+v", rep.Trace)
			}
			raw, err := json.Marshal(rep.Trace)
			if err != nil {
				t.Fatal(err)
			}
			var digests strings.Builder
			fmt.Fprintf(&digests, "%s json %x\n", pin.name, sha256.Sum256(raw))
			for _, format := range []string{"text", "jsonl", "chrome"} {
				var b bytes.Buffer
				if err := trace.Write(&b, rep.Trace, format); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&digests, "%s %s %x\n", pin.name, format, sha256.Sum256(b.Bytes()))
			}
			lines[i] = digests.String()
		})
	}
	// A failed scenario, or a -run filter that picked some, leaves its lines
	// empty; the file pins them all.
	if !slices.Contains(lines, "") {
		golden.Check(t, "trace_bytes.golden", strings.Join(lines, ""))
	}
	t.Run("parent-encoded export round-trips", func(t *testing.T) {
		var exp trace.Export
		if err := json.Unmarshal([]byte(parentExport), &exp); err != nil {
			t.Fatal(err)
		}
		back, err := json.Marshal(&exp)
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != parentExport {
			t.Fatalf("re-encoded export differs:\n got %s\nwant %s", back, parentExport)
		}
	})
	t.Run("unknown kind is refused", func(t *testing.T) {
		var exp trace.Export
		err := json.Unmarshal([]byte(`{"events":[{"id":1,"lamport":1,"at":0,"kind":"sent","from":0,"to":1}]}`), &exp)
		if err == nil {
			t.Fatal(`an event of kind "sent" decoded`)
		}
	})
}

// traceCorpus is the fuzzers' seed corpus: the JSON of every export behind
// testdata/trace_bytes.golden, plus one timer event at node 2³⁴.
func traceCorpus(f *testing.F) [][]byte {
	docs := [][]byte{[]byte(`{"events":[{"id":1,"lamport":1,"at":0.5,"kind":"timer","from":17179869184,"to":1}]}`)}
	for _, pin := range tracePins {
		s, err := DecodeBytes([]byte(pin.doc))
		if err != nil {
			f.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(rep.Trace)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, raw)
	}
	return docs
}

// fuzzTraceWriter feeds write every input that decodes as a trace.Export. A
// writer may refuse an export with an error (an event kind it cannot encode,
// a timestamp past float64's range), but it must not panic, and what it
// writes without an error must pass valid.
func fuzzTraceWriter(f *testing.F, write func(io.Writer, *trace.Export) error, valid func(out []byte) error) {
	for _, doc := range traceCorpus(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var exp trace.Export
		if json.Unmarshal(doc, &exp) != nil {
			t.Skip("not an export")
		}
		var b bytes.Buffer
		if write(&b, &exp) != nil {
			return
		}
		if err := valid(b.Bytes()); err != nil {
			t.Fatalf("%v:\n%s", err, b.Bytes())
		}
	})
}

// FuzzWriteText: no export makes the text writer panic.
func FuzzWriteText(f *testing.F) {
	fuzzTraceWriter(f, trace.WriteText, func([]byte) error { return nil })
}

// FuzzWriteJSONL: every line the JSONL writer writes is one JSON value.
func FuzzWriteJSONL(f *testing.F) {
	fuzzTraceWriter(f, trace.WriteJSONL, func(out []byte) error {
		lines := strings.Split(string(out), "\n")
		if last := lines[len(lines)-1]; last != "" {
			return fmt.Errorf("output ends in %q, not a newline", last)
		}
		for i, line := range lines[:len(lines)-1] {
			if !json.Valid([]byte(line)) {
				return fmt.Errorf("line %d is not JSON: %q", i+1, line)
			}
		}
		return nil
	})
}

// FuzzWriteChrome: the Chrome writer writes one JSON document.
func FuzzWriteChrome(f *testing.F) {
	fuzzTraceWriter(f, trace.WriteChrome, func(out []byte) error {
		if !json.Valid(out) {
			return errors.New("not one JSON document")
		}
		return nil
	})
}

// TestTracedTokenIsFormattedOnce holds a cold traced election, the
// election_ring_traced.json fixture (allocbudget.Figures: in the plain
// build its line of testdata/alloc.golden at the module root, under -race a
// measurement), to 220 objects: an exported token payload is its String,
// made once, not copied again by fmt; formatting every payload through
// Sprintf("%+v") read 222.
func TestTracedTokenIsFormattedOnce(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(fixtureDir, "election_ring_traced.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := DecodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	env, proto, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := allocbudget.Figures(t, "election_ring_traced.json", func() {
		rep, err := runner.Run(env, proto)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace == nil || rep.Leaders != 1 {
			t.Fatalf("trace %v, %d leaders", rep.Trace != nil, rep.Leaders)
		}
	})
	if cold.Objects > 220 {
		t.Errorf("a traced election allocates %d objects, budget 220", cold.Objects)
	}
}
