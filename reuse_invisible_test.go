package abenet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"abenet"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/harness"
	"abenet/internal/reuse"
	"abenet/internal/runner"
	"abenet/internal/spec"
)

// reuseScenario is one run TestReuseIsInvisible repeats.
type reuseScenario struct {
	name  string
	env   runner.Env
	proto runner.Protocol
}

// reuseScenarios are the runs whose arrays pass from one to the next: the
// serve-mixed corpus, the observed and traced fixtures, the core golden
// seeds, the golden fault and Byzantine runs, elections in the ring-sparse
// shape at 10⁴, 16 and 10³ nodes, and Ben-Or on Complete(64), whose opening
// burst of 4 022 broadcasts spills into staging pages, so that arrays of
// every size class meet runs of every other. The ring-sparse and Ben-Or runs
// name a bare size, so each builds its graph and hands it on.
func reuseScenarios(t *testing.T) []reuseScenario {
	t.Helper()
	var docs []string
	for _, glob := range []string{"benchmark/specs/*.json", "examples/specs/election_ring_observed.json", "examples/specs/election_ring_traced.json"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v, %d files", glob, err, len(files))
		}
		docs = append(docs, files...)
	}
	var out []reuseScenario
	sparse := func(n int) reuseScenario {
		return reuseScenario{fmt.Sprintf("ring-sparse/n=%d", n), runner.Env{N: n, Seed: 1}, runner.Election{A0: 1 / float64(n), TickInterval: float64(n)}}
	}
	for _, n := range []int{10_000, 16, 1_000, 10_000} {
		out = append(out, sparse(n), reuseScenario{"benor-complete-64", runner.Env{N: 64, MaxRounds: 5, MaxEvents: 100_000, Seed: 1}, runner.BenOr{}})
		for _, path := range docs {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := spec.DecodeBytes(doc)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			env, proto, err := sp.Build()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, reuseScenario{filepath.Base(path), env, proto})
		}
		for _, g := range []struct {
			n     int
			delay dist.Dist
			seed  uint64
			a0    float64
		}{
			{4, nil, 42, core.DefaultA0(4)}, {8, nil, 42, core.DefaultA0(8)}, {16, nil, 42, core.DefaultA0(16)},
			{8, dist.NewDeterministic(1), 42, core.DefaultA0(8)}, {8, dist.NewUniform(0, 2), 42, core.DefaultA0(8)},
			{8, dist.ParetoWithMean(1, 1.5), 42, core.DefaultA0(8)}, {8, dist.NewRetransmission(0.5, 0.5), 42, core.DefaultA0(8)},
			{8, dist.NewErlang(4, 1), 42, core.DefaultA0(8)}, {8, nil, 12345, 0.05},
		} {
			out = append(out, reuseScenario{fmt.Sprintf("golden-seed/n=%d/seed=%d", g.n, g.seed), runner.Env{N: g.n, Delay: g.delay, Seed: g.seed}, runner.Election{A0: g.a0}})
		}
		env, proto := goldenFaultEnv()
		out = append(out, reuseScenario{"golden-fault", env, proto})
		env, proto = goldenByzantineEnv()
		out = append(out, reuseScenario{"golden-byzantine", env, proto})
	}
	return out
}

// reportBytes is rep as JSON: every field, the trace and the series included.
func reportBytes(t *testing.T, rep abenet.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReuseIsInvisible holds a run that takes its arrays from earlier runs
// to the run in drained pools, byte for byte: each scenario runs in the
// order reuseScenarios lists them, in one process, and its report must
// equal the same run after reuse.Drain — what two collections do. A report
// returned early must still marshal to the same bytes after every later run,
// since no report keeps a reference into an array a later run takes. Then a
// harness.Sweep with four workers runs every scenario at once, as sweep
// points share a process, and must report what a one-worker sweep in
// drained pools does; so must a four-worker sweep over two bare sizes, whose
// repetitions build their rings from N and hand them on to each other.
// Under -race this is where a pooled array shared by two runs would show.
func TestReuseIsInvisible(t *testing.T) {
	scenarios := reuseScenarios(t)
	fresh := make([][]byte, len(scenarios))
	for i, s := range scenarios {
		reuse.Drain()
		rep, err := runner.Run(s.env, s.proto)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fresh[i] = reportBytes(t, rep)
	}

	reuse.Drain()
	reports := make([]abenet.Report, len(scenarios))
	for i, s := range scenarios {
		rep, err := runner.Run(s.env, s.proto)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		reports[i] = rep
		if got := reportBytes(t, rep); !bytes.Equal(got, fresh[i]) {
			t.Errorf("%s (run %d) after earlier runs reports\n%s\nand in drained pools\n%s", s.name, i, got, fresh[i])
		}
	}
	for i, rep := range reports {
		if got := reportBytes(t, rep); !bytes.Equal(got, fresh[i]) {
			t.Errorf("%s (run %d) marshals differently after the later runs:\n%s\nwant\n%s", scenarios[i].name, i, got, fresh[i])
		}
	}

	xs := make([]float64, len(scenarios))
	for i := range xs {
		xs[i] = float64(i)
	}
	sameSweeps(t, "every scenario", xs, 2, func(x float64) (runner.Env, runner.Protocol, error) {
		s := scenarios[int(x)]
		return s.env, s.proto, nil
	})
	sameSweeps(t, "bare sizes", []float64{1_000, 10_000}, 6, func(x float64) (runner.Env, runner.Protocol, error) {
		return runner.Env{N: int(x)}, runner.Election{A0: 1 / x, TickInterval: x}, nil
	})
}

// sameSweeps runs a harness.Sweep of reps repetitions at each of xs with
// four workers sharing the pools, and fails unless it gives the same
// multiset of reports as one worker that drains the pools before each run.
func sameSweeps(t *testing.T, name string, xs []float64, reps int, build harness.EnvBuildFunc) {
	t.Helper()
	sweep := func(workers int, drain bool) [][]byte {
		var mu sync.Mutex
		var out [][]byte
		record := func(rep runner.Report) error {
			b := reportBytes(t, rep)
			mu.Lock()
			out = append(out, b)
			mu.Unlock()
			return nil
		}
		run := build
		if drain {
			run = func(x float64) (runner.Env, runner.Protocol, error) {
				reuse.Drain()
				return build(x)
			}
		}
		if _, err := (harness.Sweep{Name: "reuse", Repetitions: reps, Workers: workers, Seed: 7}).Run(xs, run, record); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slices.SortFunc(out, bytes.Compare)
		return out
	}
	want, got := sweep(1, true), sweep(4, false)
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports from four workers, %d from one", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: four workers sharing the pools report\n%s\nwhere one worker in drained pools reports\n%s", name, got[i], want[i])
		}
	}
}
