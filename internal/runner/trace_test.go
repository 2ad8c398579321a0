package runner

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"abenet/internal/trace"
	"abenet/internal/trace/causal"
)

// TestTraceMetadataMatchesEngines runs every registered protocol under a
// trace config: each must either honour it (metadata says capable) or
// reject it with the typed sentinel — never silently return no trace.
func TestTraceMetadataMatchesEngines(t *testing.T) {
	for _, name := range Protocols() {
		info, _ := ProtocolInfo(name)
		p, _ := NewInstance(name)
		env := Env{N: 4, Seed: 1, Horizon: 2000, Trace: &trace.Config{}}
		rep, err := Run(env, p)
		switch {
		case info.SupportsTrace && err != nil:
			t.Errorf("%s: metadata says trace supported, Run failed: %v", name, err)
		case info.SupportsTrace && (rep.Trace == nil || len(rep.Trace.Events) == 0):
			t.Errorf("%s: metadata says trace supported, report carries no trace", name)
		case !info.SupportsTrace && !errors.Is(err, ErrTraceUnsupported):
			t.Errorf("%s: metadata says no trace support, Run = %v, want ErrTraceUnsupported", name, err)
		}
	}
}

// TestTracedRunByteIdentical is the golden pin behind the tracer design:
// the recorder only appends to its own storage and the payload tag is
// opaque to every link type, so a traced run must be byte-identical to an
// untraced one at the same (Env, seed) — same report, same metrics — for
// every trace-capable protocol.
func TestTracedRunByteIdentical(t *testing.T) {
	for _, row := range identityRows(func(i Info) bool { return i.SupportsTrace }) {
		name := row.name
		execute := func(tc *trace.Config) Report {
			env := row.env
			env.Trace = tc
			rep, err := Run(env, row.proto)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
		plain := execute(nil)
		traced := execute(&trace.Config{})

		if traced.Trace == nil || len(traced.Trace.Events) == 0 {
			t.Errorf("%s: traced run produced no events", name)
			continue
		}
		if plain.Trace != nil {
			t.Errorf("%s: untraced run carries a trace", name)
		}
		if !reflect.DeepEqual(plain.Metrics(), traced.Metrics()) {
			t.Errorf("%s: traced metrics differ from untraced:\n  %v\n  %v",
				name, plain.Metrics(), traced.Metrics())
		}
		traced.Trace = nil
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced report differs from untraced:\n  %+v\n  %+v", name, plain, traced)
		}
	}
}

// TestTracedExportDeterministic: the exported trace is a pure function of
// (Env, seed) — byte-identical across sequential repeats and across
// concurrent runs (the sweep-worker situation), in every export format.
func TestTracedExportDeterministic(t *testing.T) {
	render := func() (chrome, jsonl, text []byte) {
		p, _ := NewInstance("election")
		rep, err := Run(Env{N: 8, Seed: 11, Horizon: 5000, Trace: &trace.Config{}}, p)
		if err != nil {
			t.Error(err)
			return nil, nil, nil
		}
		var c, j, x bytes.Buffer
		if err := trace.WriteChrome(&c, rep.Trace); err != nil {
			t.Error(err)
		}
		if err := trace.WriteJSONL(&j, rep.Trace); err != nil {
			t.Error(err)
		}
		if err := trace.WriteText(&x, rep.Trace); err != nil {
			t.Error(err)
		}
		return c.Bytes(), j.Bytes(), x.Bytes()
	}

	baseChrome, baseJSONL, baseText := render()
	if len(baseChrome) == 0 || len(baseJSONL) == 0 || len(baseText) == 0 {
		t.Fatal("empty export")
	}

	// Sequential repeats (fresh heap scheduler each time).
	for i := 0; i < 3; i++ {
		c, j, x := render()
		if !bytes.Equal(c, baseChrome) || !bytes.Equal(j, baseJSONL) || !bytes.Equal(x, baseText) {
			t.Fatalf("repeat %d: exported trace diverged", i)
		}
	}

	// Concurrent repeats: how sweep workers (-workers > 1) run traced
	// specs. Each run owns its recorder; concurrency must not leak in.
	const workers = 4
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, _, _ := render()
			results[w] = c
		}(w)
	}
	wg.Wait()
	for w, c := range results {
		if !bytes.Equal(c, baseChrome) {
			t.Fatalf("worker %d: exported trace diverged", w)
		}
	}
}

// TestTraceTruncationKeepsDecision pins the cap-exemption rule (the trace
// analogue of the probe package's Final-sample rule): however small the
// cap, a run that decided still exports the decision event, so the causal
// analysis always has its terminus.
func TestTraceTruncationKeepsDecision(t *testing.T) {
	p, _ := NewInstance("election")
	rep, err := Run(Env{N: 8, Seed: 3, Horizon: 5000, Trace: &trace.Config{MaxEvents: 8}}, p)
	if err != nil {
		t.Fatal(err)
	}
	exp := rep.Trace
	if exp.Dropped == 0 {
		t.Fatal("cap of 8 did not truncate an n=8 election trace")
	}
	if exp.Decision == 0 {
		t.Fatal("truncated trace lost the decision ID")
	}
	last := exp.Events[len(exp.Events)-1]
	if last.Kind != trace.KindDecision || last.ID != exp.Decision {
		t.Fatalf("last stored event = %+v, want the decision #%d", last, exp.Decision)
	}
	if len(exp.Events) != 9 {
		t.Fatalf("stored %d events, want 8 capped + 1 exempt decision", len(exp.Events))
	}
	// The analysis still walks back from the decision even though most of
	// its ancestry was dropped.
	if p := causal.Analyze(exp).CriticalPath(); p == nil || p.Target != exp.Decision {
		t.Fatalf("critical path of truncated trace = %+v, want target #%d", p, exp.Decision)
	}
}

// TestEnvValidateTrace pins the environment-level typed errors.
func TestEnvValidateTrace(t *testing.T) {
	bad := Env{N: 4, Trace: &trace.Config{MaxEvents: -1}}
	if err := bad.Validate(); !errors.Is(err, ErrEnvTrace) {
		t.Fatalf("negative cap: Validate = %v, want ErrEnvTrace", err)
	}
	if err := (Env{N: 4, Trace: &trace.Config{MaxEvents: 64}}).Validate(); err != nil {
		t.Fatalf("valid trace env rejected: %v", err)
	}
}

// TestTracedElectionHopBound checks the paper's d+1 relay bound end to end
// on a real traced election: no relay chain exceeds n (= d+1 on the
// embedded ring, d = n−1), no chain is longer than its payload's own hop
// counter, and the critical path's hop depth respects the bound too.
func TestTracedElectionHopBound(t *testing.T) {
	const n = 12
	p, _ := NewInstance("election")
	rep, err := Run(Env{N: n, Seed: 5, Horizon: 50000, Trace: &trace.Config{}}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireElected(rep); err != nil {
		t.Fatal(err)
	}
	a := causal.Analyze(rep.Trace)
	if v := a.CheckHopBound(n); len(v) > 0 {
		t.Fatalf("hop-bound violations:\n%v", v)
	}
	path := a.CriticalPath()
	if path == nil || path.Target != rep.Trace.Decision {
		t.Fatalf("critical path = %+v, want a path to the decision", path)
	}
	if path.Hops > n {
		t.Fatalf("critical path hop depth %d exceeds d+1 = %d", path.Hops, n)
	}
	if path.Total <= 0 {
		t.Fatalf("critical path total time = %g, want > 0", path.Total)
	}
	// The edge-time split is exhaustive.
	if diff := path.Total - (path.MessageTime + path.LocalTime); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("edge split %g + %g does not sum to total %g",
			path.MessageTime, path.LocalTime, path.Total)
	}
}
