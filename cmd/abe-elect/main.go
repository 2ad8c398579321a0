// Command abe-elect runs one protocol from the registry on an ABE
// environment and reports what happened — optionally with a full message
// trace, a sampled time series, or as a sweep over ring sizes.
//
// Usage:
//
//	abe-elect [-proto election] [-topo ring] [-n 16] [-a0 0] [-seed 1]
//	          [-delay exp|det|uniform|pareto|arq] [-mean 1] [-drift 1]
//	          [-gamma 0] [-loss 0] [-crash 0] [-recover 0] [-horizon 0]
//	          [-equivocate 0] [-broadcast] [-scheduler heap|calendar]
//	          [-observe-every K] [-observe-interval T] [-observe-csv FILE]
//	          [-trace] [-trace-out FILE] [-trace-format chrome|jsonl|text]
//	          [-check] [-dry-run] [-json]
//	abe-elect -sizes 8,16,32 [-reps 50] [-workers N] [scenario flags] [-json]
//	abe-elect -spec scenario.json [-seed N] [-scheduler S] [-workers N] [-dry-run] [-json]
//
// An invocation is a spec: the scenario flags compile to the same
// internal/spec document a -spec file holds, and both go through one
// validate → hash → run → render routine (the one abe-serve runs too), so
// the three doors produce byte-identical reports for the same (scenario,
// seed) and a flag value a spec file would refuse is refused here with the
// same error. -dry-run validates and prints the canonical document and its
// scenario hash without running — save it, or POST it to abe-serve.
//
// -proto accepts any registered protocol name (see -list); -topo accepts
// ring, biring, complete or hypercube (ring protocols run along the
// topology's embedded Hamiltonian cycle). -loss and -crash inject faults
// (message loss, node churn) into fault-capable protocols; lossy runs are
// bounded by -horizon, which defaults to 1000·δ when faults are injected
// so a deadlocked election terminates the simulation instead of the user.
// -sizes sweeps the scenario over ring sizes (-reps seeded runs each) and
// renders the aggregated table; a spec file with a "sweep" block does the
// same. A flag the chosen run does not read is rejected, not dropped.
//
// -trace records every kernel event (sends, deliveries, timers, the
// decision) as a causal forest — each event carries a Lamport clock and a
// happens-before parent edge — and prints it with a critical-path summary.
// -trace-out writes the trace to FILE instead: -trace-format chrome (the
// default) is Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing with one track per node and flow arrows for message
// edges; jsonl is one event per line for stream processing; text is the
// human dump. Tracing is observational only: a traced run's report is
// byte-identical to the untraced run's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"abenet"
	"abenet/internal/harness"
	"abenet/internal/probe"
	"abenet/internal/runner"
	"abenet/internal/spec"
	"abenet/internal/trace"
	"abenet/internal/trace/causal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "abe-elect:", err)
		os.Exit(1)
	}
}

// cli is one invocation: the parsed flags, which of them the user set, and
// where output goes.
type cli struct {
	set            map[string]bool
	stdout, stderr io.Writer

	// The scenario, as flags (what a -spec file states instead).
	proto, topo, delay, sizes     string
	n, reps, obsMax               int
	equivocate                    uint
	a0, mean, drift, gamma        float64
	loss, crash, recover, horizon float64
	obsEvery                      uint64
	obsInterval                   float64
	broadcast, check              bool

	// What composes with either source, and how to render.
	specPath, scheduler          string
	seed                         uint64
	workers                      int
	traceOut, traceFmt, obsCSV   string
	trace, dryRun, jsonOut, list bool
}

func run(args []string, stdout, stderr io.Writer) error {
	c := cli{set: map[string]bool{}, stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("abe-elect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.proto, "proto", "election", "protocol to run (see -list)")
	fs.BoolVar(&c.list, "list", false, "list registered protocols and exit")
	fs.StringVar(&c.topo, "topo", "ring", "topology: ring, biring, complete, hypercube")
	fs.IntVar(&c.n, "n", 16, "network size (hypercube rounds down to a power of two)")
	fs.Float64Var(&c.a0, "a0", 0, "election activation parameter (0 = balanced default)")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.scheduler, "scheduler", "", "kernel event scheduler: heap or calendar (default heap; results are byte-identical either way)")
	fs.StringVar(&c.delay, "delay", "exp", "delay model: exp, det, uniform, pareto, arq")
	fs.Float64Var(&c.mean, "mean", 1, "expected link delay δ")
	fs.Float64Var(&c.drift, "drift", 1, "clock speed ratio s_high/s_low (1 = perfect clocks)")
	fs.Float64Var(&c.gamma, "gamma", 0, "expected processing time γ (0 = instantaneous)")
	fs.Float64Var(&c.loss, "loss", 0, "per-message loss probability in [0, 1) (fault injection)")
	fs.Float64Var(&c.crash, "crash", 0, "per-node exponential crash rate (fault injection)")
	fs.Float64Var(&c.recover, "recover", 0, "crashed-node recovery rate (needs -crash; 0 = crash-stop)")
	fs.UintVar(&c.equivocate, "equivocate", 0, "make nodes 0..k-1 Byzantine equivocators (honoured by ben-or)")
	fs.BoolVar(&c.broadcast, "broadcast", false, "atomic local-broadcast medium instead of point-to-point links (honoured by ben-or)")
	fs.Float64Var(&c.horizon, "horizon", 0, "virtual-time bound (0 = unbounded, or 1000·δ when faults are on)")
	fs.BoolVar(&c.trace, "trace", false, "print the full causal trace")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the causal trace to FILE (implies tracing)")
	fs.StringVar(&c.traceFmt, "trace-format", "chrome", "trace file format: "+trace.FormatNames+" (with -trace-out)")
	fs.Uint64Var(&c.obsEvery, "observe-every", 0, "sample a time series every K executed events")
	fs.Float64Var(&c.obsInterval, "observe-interval", 0, "sample a time series every T virtual time units")
	fs.IntVar(&c.obsMax, "observe-max", 0, "cap on stored samples (0 = 100000)")
	fs.StringVar(&c.obsCSV, "observe-csv", "", "write the sampled series as CSV to FILE (\"-\" = stdout)")
	fs.BoolVar(&c.check, "check", false, "also model-check the election exhaustively at this size (-proto election on the default ring, n <= 6)")
	fs.StringVar(&c.sizes, "sizes", "", "sweep the scenario over these comma-separated ring sizes instead of one run")
	fs.IntVar(&c.reps, "reps", 0, "with -sizes: seeded repetitions per size (0 = 100)")
	fs.StringVar(&c.specPath, "spec", "", "run a declarative scenario file instead of compiling one from flags")
	fs.BoolVar(&c.dryRun, "dry-run", false, "validate and print the canonical scenario document and its hash without running")
	fs.IntVar(&c.workers, "workers", 0, "sweep parallelism (0 = GOMAXPROCS); results are identical for any value")
	fs.BoolVar(&c.jsonOut, "json", false, "print the report as JSON (machine-readable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })

	if c.list {
		for _, name := range abenet.Protocols() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if trace.ContentType(c.traceFmt) == "" {
		return fmt.Errorf("unknown -trace-format %q (%s)", c.traceFmt, trace.FormatNames)
	}
	if c.set["trace-format"] && c.traceOut == "" {
		return fmt.Errorf("-trace-format picks the -trace-out file format; set -trace-out FILE (plain -trace always prints text)")
	}

	s, err := c.compile()
	if err != nil {
		return err
	}
	hash, err := s.Hash()
	if err != nil {
		return err
	}
	switch {
	case c.dryRun:
		return c.describe(s, hash)
	case s.Sweep != nil:
		return c.runSweep(s, hash)
	default:
		return c.runOne(s, hash)
	}
}

// scenarioFlags are the flags that state the scenario — exactly what a
// -spec file states instead, so naming both is a conflict.
var scenarioFlags = []string{"proto", "topo", "n", "a0", "delay", "mean", "drift", "gamma",
	"loss", "crash", "recover", "equivocate", "broadcast", "horizon", "check",
	"observe-every", "observe-interval", "observe-max", "sizes", "reps"}

// compile turns the invocation into the one validated spec it means: the
// -spec file or the scenario flags, then the overrides that compose with
// either (seed and scheduler, which are not scenario identity; tracing;
// sweep parallelism). The result has been through the strict decoder, so
// what runs is exactly the document -dry-run prints.
func (c *cli) compile() (*spec.Spec, error) {
	var s *spec.Spec
	var err error
	if c.specPath != "" {
		var clash []string
		for _, name := range scenarioFlags {
			if c.set[name] {
				clash = append(clash, "-"+name)
			}
		}
		if len(clash) > 0 {
			sort.Strings(clash)
			return nil, fmt.Errorf("-spec states the scenario; drop %v (only -seed, -scheduler, -trace, -trace-out, -trace-format, -workers, -observe-csv, -json and -dry-run combine with it)", clash)
		}
		if s, err = spec.DecodeFile(c.specPath); err != nil {
			return nil, err
		}
	} else if s, err = c.fromFlags(); err != nil {
		return nil, err
	}
	if c.specPath == "" || c.set["seed"] {
		s.Env.Seed = c.seed
	}
	if c.set["scheduler"] {
		s.Env.Scheduler = c.scheduler
	}
	if s.Sweep != nil {
		if c.trace || c.traceOut != "" || c.obsCSV != "" {
			return nil, errors.New("-trace, -trace-out and -observe-csv apply to single runs, not sweeps")
		}
		if c.set["workers"] {
			s.Sweep.Workers = c.workers
		}
	} else {
		if c.set["workers"] {
			return nil, errors.New("-workers bounds sweep parallelism; this is a single run (add -sizes, or a spec with a sweep block)")
		}
		// The flags imply tracing even when a spec file carries no trace
		// block; a spec block's cap wins when both are present.
		if (c.trace || c.traceOut != "") && s.Env.Trace == nil {
			s.Env.Trace = &trace.Config{}
		}
		if c.obsCSV != "" && s.Env.Observe == nil {
			return nil, errors.New("-observe-csv needs a sampling cadence: set -observe-every and/or -observe-interval (or a spec observe block)")
		}
	}
	doc, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return spec.DecodeBytes(doc)
}

// fromFlags states the scenario flags as a spec. Flags whose zero value
// means "none" compile when non-zero, the others when set — never by
// "> 0", so a negative or zero value reaches the spec validator and is
// refused there instead of silently selecting the default.
func (c *cli) fromFlags() (*spec.Spec, error) {
	s := &spec.Spec{Version: spec.Version}
	e := &s.Env

	if c.sizes != "" {
		if c.set["n"] || c.set["topo"] || c.check {
			return nil, errors.New("-sizes sweeps the ring size; drop -n, -topo and -check")
		}
		sweep := &spec.SweepSpec{Repetitions: c.reps}
		for _, f := range strings.Split(c.sizes, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("-sizes: bad size %q", f)
			}
			sweep.Xs = append(sweep.Xs, x)
		}
		s.Sweep = sweep
	} else {
		if c.set["reps"] {
			return nil, errors.New("-reps counts repetitions per sweep size; set -sizes")
		}
		switch c.topo {
		case "ring":
			// A bare size is the protocol's own graph (Ben-Or's is
			// complete); a -topo ring that is set names the ring.
			if c.set["topo"] {
				e.Topology = spec.RingTopology(c.n)
			} else {
				e.N = c.n
			}
		case "biring":
			e.Topology = spec.BiRingTopology(c.n)
		case "complete":
			e.Topology = spec.CompleteTopology(c.n)
		case "hypercube":
			dim := 0
			for 1<<(dim+1) <= c.n {
				dim++
			}
			e.Topology = spec.HypercubeTopology(dim)
		default:
			return nil, fmt.Errorf("unknown topology %q", c.topo)
		}
	}

	switch c.delay {
	case "exp":
		if c.set["mean"] {
			e.Delay = spec.Exponential(c.mean)
		}
	case "det":
		e.Delay = spec.Deterministic(c.mean)
	case "uniform":
		e.Delay = spec.Uniform(0, 2*c.mean)
	case "pareto":
		e.Delay = spec.Pareto(c.mean, 2)
	case "arq":
		// p = 0.5 with slots sized so the mean comes out right; declare
		// δ = slot/p so defaulted parameters (A0) stay balanced.
		e.Links = spec.ARQLinks(0.5, c.mean/2)
		e.Delta = c.mean
	default:
		return nil, fmt.Errorf("unknown delay model %q", c.delay)
	}
	if c.drift != 1 {
		e.Clocks = spec.WanderingClocks(1, c.drift, 1)
	}
	if c.gamma != 0 {
		e.Processing = spec.Exponential(c.gamma)
	}
	if c.loss != 0 || c.crash != 0 || c.recover != 0 {
		e.Faults = &spec.FaultsSpec{Loss: c.loss, CrashRate: c.crash, RecoverRate: c.recover}
	}
	if c.equivocate > 0 {
		e.Byzantine = &spec.ByzantineSpec{}
		for i := 0; i < int(c.equivocate); i++ {
			e.Byzantine.Roles = append(e.Byzantine.Roles, spec.ByzantineRoleSpec{Node: i, Behavior: abenet.Equivocate.String()})
		}
	}
	e.LocalBroadcast = c.broadcast
	e.Horizon = c.horizon
	if c.horizon == 0 && e.Faults != nil {
		// Lossy runs can deadlock legitimately; bound them by default.
		e.Horizon = 1000 * c.mean
	}
	if c.obsEvery != 0 || c.obsInterval != 0 || c.obsMax != 0 {
		e.Observe = &probe.Config{EveryEvents: c.obsEvery, Interval: c.obsInterval, MaxSamples: c.obsMax}
	}

	protocol, ok := abenet.ProtocolByName(c.proto)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (try -list)", c.proto)
	}
	if c.proto == "election" {
		protocol = abenet.Election{A0: c.a0}
	} else if c.set["a0"] {
		return nil, fmt.Errorf("-a0 cannot be combined with -proto %s: only the election protocol has an activation parameter", c.proto)
	}
	// -check explores the ABE election's state space on the unidirectional
	// ring: under any other run it would verify a protocol that did not run.
	if c.check && (c.proto != "election" || c.topo != "ring" || c.n > 6) {
		return nil, fmt.Errorf("-check model-checks the ABE election on the default ring at n <= 6; got -proto %s -topo %s -n %d", c.proto, c.topo, c.n)
	}
	var err error
	s.Protocol, err = spec.ForProtocol(protocol)
	return s, err
}

// source names where the scenario came from.
func (c *cli) source() string {
	if c.specPath != "" {
		return c.specPath
	}
	return "flags"
}

// describe is -dry-run: the validated scenario's identity and canonical
// document, nothing run.
func (c *cli) describe(s *spec.Spec, hash string) error {
	doc, err := s.Canonical()
	if err != nil {
		return err
	}
	kind := "run"
	if s.Sweep != nil {
		kind = fmt.Sprintf("sweep over %v", s.Sweep.Xs)
	}
	if c.jsonOut {
		return c.encodeJSON(map[string]any{
			"spec":      c.source(),
			"spec_hash": hash,
			"protocol":  s.Protocol.Name,
			"kind":      kind,
			"seed":      s.Env.Seed,
			"valid":     true,
			"document":  json.RawMessage(doc),
		})
	}
	_, err = fmt.Fprintf(c.stdout, "spec      : %s\nhash      : %s\nprotocol  : %s\nkind      : %s\nseed      : %d\nstatus    : valid\ndocument  : %s\n",
		c.source(), hash, s.Protocol.Name, kind, s.Env.Seed, doc)
	return err
}

// runSweep runs the sweep block and renders the aggregated table — the CLI
// face of the same (spec → harness.Sweep) path abe-serve runs, so the
// numbers match a POST /v1/runs of the same document byte for byte.
func (c *cli) runSweep(s *spec.Spec, hash string) error {
	points, err := s.RunSweep(0, nil)
	if err != nil {
		return err
	}
	if c.jsonOut {
		return c.encodeJSON(map[string]any{
			"spec_hash": hash,
			"seed":      s.Env.Seed,
			"protocol":  s.Protocol.Name,
			"points":    spec.SweepView(points, s.Sweep.Metrics),
		})
	}
	reps := s.Sweep.Repetitions
	if reps == 0 {
		reps = harness.DefaultRepetitions
	}
	// The table honours the spec's metrics filter (same view as abe-serve);
	// the growth fit reads the unfiltered points so it works even when
	// "messages" is not among the kept columns.
	table := abenet.PointsTable(fmt.Sprintf("%s over %d seeds per size (spec %s)",
		s.Protocol.Name, reps, hash[:12]), "n", spec.FilterPoints(points, s.Sweep.Metrics))
	if err := table.Render(c.stdout); err != nil {
		return err
	}
	if fit, err := abenet.GrowthExponent(points, "messages"); err == nil {
		fmt.Fprintf(c.stdout, "\nmessage growth exponent: %.3f (R²=%.4f)\n", fit.Slope, fit.R2)
	}
	return nil
}

// runOne runs the single scenario and renders its report, trace and series.
func (c *cli) runOne(s *spec.Spec, hash string) error {
	env, protocol, err := s.Build()
	if err != nil {
		return err
	}
	rep, err := abenet.Run(env, protocol)
	if err != nil {
		return err
	}
	// Lift the trace off the report: the JSON document summarises it (the
	// full export goes to -trace-out / the text dump), and the report stays
	// the same value an untraced run produces.
	exp := rep.Trace
	rep.Trace = nil
	if err := c.emitTrace(exp); err != nil {
		return err
	}
	if err := c.writeSeriesCSV(rep.Series); err != nil {
		return err
	}
	// Run the model check before rendering so its outcome can live inside
	// the JSON document: -json promises one parseable value on stdout.
	var check *abenet.CheckReport
	if c.check {
		report, err := abenet.CheckElection(abenet.CheckOptions{N: c.n})
		if err != nil {
			return err
		}
		check = &report
	}

	if c.jsonOut {
		// The same metric map the sweep harness and abe-serve aggregate, so
		// outputs diff cleanly.
		out := map[string]any{
			"spec_hash": hash,
			"protocol":  rep.Protocol,
			"report":    rep,
			"metrics":   rep.Metrics(),
		}
		if exp != nil {
			out["trace"] = traceJSON(exp)
		}
		if check != nil {
			out["model_check"] = map[string]any{
				"safe":            check.OK(),
				"states_explored": check.StatesExplored,
				"leader_states":   check.LeaderStates,
				"violations":      len(check.Violations),
			}
		}
		return c.encodeJSON(out)
	}
	label := runner.BareGraph(protocol).Name
	if s.Env.Topology != nil {
		label = s.Env.Topology.Name
	}
	size := env.N
	if env.Graph != nil {
		size = env.Graph.N() // hypercube rounds -n down to a power of two
	}
	fmt.Fprintf(c.stdout, "spec                : %s (hash %s)\n", c.source(), hash[:12])
	printReport(c.stdout, rep, label, size)
	c.printTraceSummary(exp)
	if check != nil {
		verdict := "SAFE (every reachable state, a leader reachable from each)"
		if !check.OK() {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(check.Violations))
		}
		fmt.Fprintf(c.stdout, "model check         : %s — %d states, %d with a leader\n",
			verdict, check.StatesExplored, check.LeaderStates)
	}
	return nil
}

// emitTrace renders the exported trace: the text dump for -trace (to
// stderr under -json so stdout stays one parseable value) and the chosen
// file format for -trace-out.
func (c *cli) emitTrace(exp *trace.Export) error {
	if exp == nil {
		return nil
	}
	if c.trace {
		dest := c.stdout
		if c.jsonOut {
			dest = c.stderr
		}
		if err := trace.WriteText(dest, exp); err != nil {
			return err
		}
		fmt.Fprintln(dest)
	}
	if c.traceOut == "" {
		return nil
	}
	f, err := os.Create(c.traceOut)
	if err != nil {
		return err
	}
	if err := trace.Write(f, exp, c.traceFmt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceJSON summarises the trace for the JSON document: the recorder
// counters plus the causal analysis (critical path to the decision,
// relay-depth maximum) — the full event list lives in -trace-out, not here.
func traceJSON(exp *trace.Export) map[string]any {
	return map[string]any{
		"events":    len(exp.Events),
		"dropped":   exp.Dropped,
		"truncated": exp.Dropped > 0,
		"causal":    causal.Summarize(exp),
	}
}

// printTraceSummary renders the causal analysis under the report: the
// critical path — the longest happens-before chain ending at the decision —
// split into message-delay and local time, and the deepest relay chain.
func (c *cli) printTraceSummary(exp *trace.Export) {
	if exp == nil {
		return
	}
	s := causal.Summarize(exp)
	line := fmt.Sprintf("trace               : %d events", s.Events)
	if s.Dropped > 0 {
		line += fmt.Sprintf(" (%d more dropped past the cap)", s.Dropped)
	}
	fmt.Fprintln(c.stdout, line)
	target := "deepest event"
	if s.Decision != 0 {
		target = "decision"
	}
	fmt.Fprintf(c.stdout, "critical path       : %d edges (%d hops) to the %s — %.3f virtual time (%.3f message delay, %.3f local)\n",
		s.PathLen, s.Hops, target, s.Time, s.MessageTime, s.LocalTime)
	fmt.Fprintf(c.stdout, "max relay depth     : %d\n", s.MaxHopDepth)
	if c.traceOut != "" {
		fmt.Fprintf(c.stdout, "trace written       : %s\n", c.traceOut)
	}
}

// writeSeriesCSV renders the sampled time series as CSV: a header of
// time,event plus the gauge names, one row per sample. dest "-" streams to
// stdout (text mode only — under -json stdout carries the JSON document).
func (c *cli) writeSeriesCSV(s *probe.Series) error {
	if c.obsCSV == "" {
		return nil
	}
	if c.obsCSV == "-" {
		if c.jsonOut {
			return fmt.Errorf(`-observe-csv "-" cannot combine with -json (stdout is the JSON document); write the CSV to a file`)
		}
		return seriesCSV(s, c.stdout)
	}
	f, err := os.Create(c.obsCSV)
	if err != nil {
		return err
	}
	if err := seriesCSV(s, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seriesCSV writes the series rows.
func seriesCSV(s *probe.Series, w io.Writer) error {
	header := "time,event"
	for _, name := range s.Names {
		header += "," + name
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, smp := range s.Samples {
		row := strconv.FormatFloat(smp.Time, 'g', -1, 64) + "," + strconv.FormatUint(smp.Event, 10)
		for _, v := range smp.Values {
			row += "," + strconv.FormatFloat(v, 'g', -1, 64)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

func (c *cli) encodeJSON(v any) error {
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printReport renders the human-readable report.
func printReport(w io.Writer, rep abenet.Report, envLabel string, size int) {
	fmt.Fprintf(w, "protocol            : %s\n", rep.Protocol)
	fmt.Fprintf(w, "environment         : %s(%d)\n", envLabel, size)
	if rep.Params != (abenet.Params{}) {
		fmt.Fprintf(w, "ABE parameters      : δ=%.3g  s∈[%.3g,%.3g]  γ=%.3g\n",
			rep.Params.Delta, rep.Params.SLow, rep.Params.SHigh, rep.Params.Gamma)
	}
	if rep.Elected || rep.Leaders > 0 {
		fmt.Fprintf(w, "leader              : node %d (of %d leaders)\n", rep.LeaderIndex, rep.Leaders)
	}
	fmt.Fprintf(w, "virtual time        : %.3f\n", rep.Time)
	fmt.Fprintf(w, "messages            : %d (%.2f per node)\n", rep.Messages, float64(rep.Messages)/float64(size))
	if rep.Transmissions > 0 {
		fmt.Fprintf(w, "transmissions       : %d\n", rep.Transmissions)
	}
	if rep.Rounds > 0 {
		fmt.Fprintf(w, "rounds              : %d\n", rep.Rounds)
	}
	if extra, ok := rep.Extra.(abenet.ElectionExtra); ok {
		fmt.Fprintf(w, "activations         : %d\n", extra.Activations)
		fmt.Fprintf(w, "knockouts           : %d\n", extra.Knockouts)
	}
	if extra, ok := rep.Extra.(abenet.ClockSyncExtra); ok {
		fmt.Fprintf(w, "round violations    : %d (rate %.4f, max lateness %d)\n",
			extra.RoundViolations, extra.ViolationRate, extra.MaxLateness)
	}
	if extra, ok := rep.Extra.(abenet.SyncExtra); ok {
		fmt.Fprintf(w, "messages per round  : %.1f\n", extra.MessagesPerRound)
	}
	consensus := false
	if extra, ok := rep.Extra.(abenet.ConsensusExtra); ok {
		consensus = true
		fmt.Fprintf(w, "consensus           : %d/%d honest decided %d (agreement %v, validity %v, termination %v)\n",
			extra.Decided, extra.Honest, extra.Decision, extra.Agreement, extra.Validity, extra.Termination)
		fmt.Fprintf(w, "coin flips          : %d (decision round %d)\n", extra.CoinFlips, extra.DecisionRound)
	}
	if tel := rep.Faults; tel != nil {
		fmt.Fprintf(w, "faults injected     : %d (dropped %d, duplicated %d, delayed %d, dead letters %d, crashes %d)\n",
			tel.TotalFaults(), tel.MessagesDropped+tel.LinkDrops, tel.MessagesDuplicated,
			tel.MessagesDelayed, tel.DeadLetters, tel.Crashes)
		if tel.Crashes > 0 {
			fmt.Fprintf(w, "node churn          : %d crashes, %d recoveries\n", tel.Crashes, tel.Recoveries)
			const maxIntervals = 10
			for i, iv := range tel.CrashIntervals {
				if i == maxIntervals {
					fmt.Fprintf(w, "  ... %d more outages\n", len(tel.CrashIntervals)-maxIntervals)
					break
				}
				end := "end of run"
				if iv.End >= 0 {
					end = fmt.Sprintf("%.3f", iv.End)
				}
				fmt.Fprintf(w, "  node %-3d down %.3f .. %s\n", iv.Node, iv.Start, end)
			}
		}
		if byz := tel.Byzantine; byz != nil && byz.Total() > 0 {
			fmt.Fprintf(w, "adversary actions   : %d (equivocations %d, corruptions %d, omissions %d, stalls %d)\n",
				byz.Total(), byz.Equivocations, byz.Corruptions, byz.Omissions, byz.Stalls)
		}
		if !rep.Elected && rep.Leaders == 0 && !consensus {
			fmt.Fprintf(w, "outcome             : no leader within the horizon (faults won this one)\n")
		}
	}
	if s := rep.Series; s != nil {
		line := fmt.Sprintf("series              : %d samples × %d gauges", len(s.Samples), len(s.Names))
		if s.Truncated > 0 {
			line += fmt.Sprintf(" (%d more truncated past the cap)", s.Truncated)
		}
		fmt.Fprintln(w, line)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(w, "VIOLATIONS          : %v\n", rep.Violations)
	}
}
