package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abenet/internal/spec"
)

// elect runs one invocation and returns its stdout.
func elect(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// flagSets covers every -topo, every -delay, drift, γ, each fault axis, the
// Byzantine/broadcast pair, horizon, observe, trace (also of the lock-step
// model), -a0, non-election protocols, a scheduler override and a
// -sizes/-reps sweep.
var flagSets = [][]string{
	{"-n", "16", "-seed", "7"},
	{"-topo", "biring", "-n", "12", "-delay", "det", "-seed", "2"},
	{"-topo", "complete", "-n", "8", "-delay", "uniform", "-mean", "2", "-seed", "3"},
	{"-topo", "hypercube", "-n", "20", "-delay", "pareto", "-mean", "1.5", "-seed", "4"},
	{"-delay", "arq", "-n", "16", "-loss", "0.05", "-seed", "3"},
	{"-delay", "exp", "-mean", "2", "-n", "8"},
	{"-drift", "1.5", "-gamma", "0.2", "-n", "10", "-seed", "5"},
	{"-crash", "0.01", "-recover", "0.1", "-n", "12", "-seed", "9"},
	{"-proto", "ben-or", "-topo", "complete", "-n", "7", "-equivocate", "1", "-broadcast", "-seed", "6"},
	{"-loss", "0.15", "-horizon", "200", "-seed", "9"},
	{"-observe-every", "10", "-observe-interval", "2.5", "-observe-max", "50", "-n", "8"},
	{"-trace", "-n", "4", "-seed", "2"},
	{"-a0", "0.3", "-n", "8", "-seed", "11"},
	{"-proto", "peterson", "-n", "16", "-seed", "8"},
	{"-proto", "synchronized-election", "-topo", "biring", "-n", "8", "-seed", "3", "-scheduler", "calendar"},
	{"-proto", "clock-sync", "-delay", "arq", "-seed", "2"},
	{"-proto", "itai-rodeh-sync", "-trace", "-observe-every", "5"},
	{"-proto", "chang-roberts", "-sizes", "8,16", "-reps", "5", "-seed", "4", "-workers", "2"},
}

// TestFlagsCompileToTheSpecTheyPrint pins the one-door contract: for every
// flag set, -dry-run prints a canonical document the strict decoder accepts
// under the printed hash, and running that document through -spec gives the
// flag run's -json output byte for byte.
func TestFlagsCompileToTheSpecTheyPrint(t *testing.T) {
	for _, flags := range flagSets {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			direct, err := elect(t, append(flags, "-json")...)
			if err != nil {
				t.Fatalf("flag run: %v", err)
			}
			out, err := elect(t, append(flags, "-dry-run", "-json")...)
			if err != nil {
				t.Fatalf("-dry-run: %v", err)
			}
			var dry struct {
				Hash     string          `json:"spec_hash"`
				Document json.RawMessage `json:"document"`
			}
			if err := json.Unmarshal([]byte(out), &dry); err != nil {
				t.Fatalf("-dry-run -json is not one JSON value: %v\n%s", err, out)
			}

			// Compact the indented document back to its canonical bytes.
			var doc bytes.Buffer
			if err := json.Compact(&doc, dry.Document); err != nil {
				t.Fatal(err)
			}
			s, err := spec.DecodeBytes(doc.Bytes())
			if err != nil {
				t.Fatalf("printed document does not decode: %v\n%s", err, doc.Bytes())
			}
			if hash, _ := s.Hash(); hash != dry.Hash {
				t.Fatalf("document hashes to %s, -dry-run printed %s", hash, dry.Hash)
			}
			if canon, _ := s.Canonical(); !bytes.Equal(canon, doc.Bytes()) {
				t.Fatalf("printed document is not canonical:\n%s\n%s", doc.Bytes(), canon)
			}

			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			// The document carries everything that shapes stdout (-trace
			// became its trace block; the flag itself only adds the text
			// dump on stderr), so no flag but -json rides along.
			viaSpec, err := elect(t, "-spec", path, "-json")
			if err != nil {
				t.Fatalf("-spec run of the printed document: %v", err)
			}
			if viaSpec != direct {
				t.Fatalf("flag run and -spec run of its own document differ:\n%s\n%s", direct, viaSpec)
			}
			if !strings.Contains(direct, dry.Hash) {
				t.Fatalf("run output does not carry the scenario hash %s", dry.Hash)
			}
		})
	}
}

// TestRejectedNotDropped pins what the hand-built Env path got wrong: values
// it panicked on return one typed line, values it silently dropped are
// refused, and a flag the chosen run does not read is an error — each
// message naming the offending component or flag.
func TestRejectedNotDropped(t *testing.T) {
	// RUN and SWEEP stand for committed spec files (kept out of the subtest
	// names, which are the args).
	files := strings.NewReplacer(
		"RUN", filepath.Join("..", "..", "examples", "specs", "election_ring.json"),
		"SWEEP", filepath.Join("..", "..", "examples", "specs", "itai_rodeh_sweep.json"))
	for _, tc := range []struct {
		args string
		want string // substring of the error
	}{
		// Panicked with a goroutine dump.
		{"-mean 0", `distribution "exponential"`},
		{"-delay pareto -mean -1", `distribution "pareto"`},
		{"-delay arq -mean 0", `link factory "arq"`},
		// Silently ran the default scenario.
		{"-gamma -1", `distribution "exponential": dist: exponential mean -1`},
		{"-loss -0.5", "faults: Loss probability -0.5"},
		{"-crash -1", "faults: CrashRate -1"},
		{"-horizon -5", "horizon -5"},
		{"-drift 0.5", `clock model "wandering"`},
		{"-observe-max 5", "invalid observe config: probe: config needs every_events and/or interval"},
		{"-recover 0.1", "faults: RecoverRate 0.1 without CrashRate"},
		// Flags the chosen run does not read.
		{"-proto peterson -n 4 -check", "-check model-checks the ABE election"},
		{"-topo biring -n 4 -check", "-check model-checks the ABE election"},
		{"-n 7 -check", "-check model-checks the ABE election"},
		{"-sizes 4,5 -check", "-sizes sweeps the ring size"},
		{"-sizes 8,16 -n 8", "-sizes sweeps the ring size"},
		{"-proto chang-roberts -a0 0.5", "-a0 cannot be combined with -proto chang-roberts"},
		{"-workers 2", "-workers bounds sweep parallelism"},
		{"-spec RUN -workers 2", "-workers bounds sweep parallelism"},
		{"-sizes 8,16 -workers -1", "sweep workers -1"},
		{"-reps 5", "-reps counts repetitions per sweep size"},
		{"-sizes 8,16 -trace", "apply to single runs, not sweeps"},
		{"-sizes 8,16 -trace-out f.json", "apply to single runs, not sweeps"},
		{"-spec SWEEP -observe-csv f.csv", "apply to single runs, not sweeps"},
		{"-observe-csv f.csv", "-observe-csv needs a sampling cadence"},
		{"-trace-format jsonl", "-trace-format picks the -trace-out file format"},
		{"-spec RUN -n 8 -check", "-spec states the scenario; drop [-check -n]"},
		{"-spec RUN -scheduler fifo", `unknown scheduler: "fifo"`},
		// The deleted runtime and command-line door.
		{"-proto live-election", `unknown protocol "live-election"`},
		{"-live", "flag provided but not defined: -live"},
		// Capability rejections reach the flag path through the spec.
		{"-proto peterson -loss 0.1", "does not support fault injection"},
		{"-proto election -equivocate 1", "does not support byzantine adversaries"},
		// A -topo ring that is set names the ring, not the protocol's bare graph.
		{"-proto ben-or -topo ring -n 8", "consensus: ben-or requires a complete topology"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			out, err := elect(t, strings.Fields(files.Replace(tc.args))...)
			if err == nil {
				t.Fatalf("accepted; stdout:\n%s", out)
			}
			if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("error %q, want one line containing %q", err, tc.want)
			}
			if out != "" {
				t.Fatalf("a rejected invocation still wrote to stdout:\n%s", out)
			}
		})
	}
}

// TestDryRunSpecFileKeepsItsHash: -dry-run on a committed file reports the
// file's own scenario hash, and -seed/-scheduler overrides do not move it.
func TestDryRunSpecFileKeepsItsHash(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "specs", "election_ring.json")
	s, err := spec.DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.Hash()
	for _, extra := range [][]string{nil, {"-seed", "99", "-scheduler", "calendar"}} {
		out, err := elect(t, append([]string{"-spec", path, "-dry-run"}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "hash      : "+want+"\n") || !strings.Contains(out, "status    : valid\n") {
			t.Fatalf("-dry-run %v output:\n%s\nwant hash %s", extra, out, want)
		}
	}
}

// TestSweepRendersGrowthExponent: the one sweep renderer carries the
// growth-exponent line abe-bench's deleted -proto door used to print.
func TestSweepRendersGrowthExponent(t *testing.T) {
	out, err := elect(t, "-proto", "chang-roberts", "-sizes", "8,16,32", "-reps", "5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chang-roberts over 5 seeds per size (spec ", "message growth exponent: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output lacks %q:\n%s", want, out)
		}
	}
}

// TestCheckRidesTheElection: -check is accepted exactly where it verifies
// what ran, on a bare size or an explicit -topo ring, and its verdict lands
// inside the one JSON value.
func TestCheckRidesTheElection(t *testing.T) {
	for _, args := range [][]string{{"-n", "4", "-check", "-json"}, {"-topo", "ring", "-n", "4", "-check", "-json"}} {
		out, err := elect(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Check struct {
				Safe bool `json:"safe"`
			} `json:"model_check"`
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil || !doc.Check.Safe {
			t.Fatalf("%v: model_check missing or unsafe (%v):\n%s", args, err, out)
		}
	}
}

// TestExplicitRingNamesTheRing: an unset -topo is the protocol's bare graph
// (Ben-Or's complete graph); a -topo ring that is set is the ring.
func TestExplicitRingNamesTheRing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-proto", "ben-or", "-n", "8"}, "environment         : complete(8)"},
		{[]string{"-topo", "ring", "-n", "8"}, "environment         : ring(8)"},
	} {
		out, err := elect(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
