// Command abe-elect runs one protocol from the registry on an ABE
// environment and reports what happened — optionally with a full message
// trace for the paper's election.
//
// Usage:
//
//	abe-elect [-proto election] [-topo ring] [-n 16] [-a0 0] [-seed 1]
//	          [-delay exp|det|uniform|pareto|arq] [-mean 1] [-drift 1]
//	          [-gamma 0] [-loss 0] [-crash 0] [-recover 0] [-horizon 0]
//	          [-trace] [-trace-out FILE] [-trace-format chrome|jsonl|text]
//	          [-check] [-live] [-json]
//	abe-elect -spec scenario.json [-seed N] [-workers N] [-dry-run] [-json]
//
// -proto accepts any registered protocol name (see -list); -topo accepts
// ring, biring, complete or hypercube (ring protocols run along the
// topology's embedded Hamiltonian cycle). -loss and -crash inject faults
// (message loss, node churn) into fault-capable protocols; lossy runs are
// bounded by -horizon, which defaults to 1000·δ when faults are injected
// so a deadlocked election terminates the simulation instead of the user.
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
//
// -spec runs a declarative scenario file (the internal/spec JSON schema)
// through exactly the same runner.Run path as the flags — and as
// abe-serve — so the three doors produce byte-identical reports for the
// same (scenario, seed). A spec with a "sweep" block renders the
// aggregated table instead ( -workers bounds its parallelism); -dry-run
// validates the file and prints its scenario hash without running.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"abenet"
	"abenet/internal/probe"
	"abenet/internal/simtime"
	"abenet/internal/spec"
	"abenet/internal/trace"
	"abenet/internal/trace/causal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abe-elect:", err)
		os.Exit(1)
	}
}

func run() error {
	proto := flag.String("proto", "election", "protocol to run (see -list)")
	list := flag.Bool("list", false, "list registered protocols and exit")
	topo := flag.String("topo", "ring", "topology: ring, biring, complete, hypercube")
	n := flag.Int("n", 16, "network size (hypercube rounds down to a power of two)")
	a0 := flag.Float64("a0", 0, "election activation parameter (0 = balanced default)")
	seed := flag.Uint64("seed", 1, "random seed")
	scheduler := flag.String("scheduler", "", "kernel event scheduler: heap or calendar (default heap; results are byte-identical either way)")
	delayKind := flag.String("delay", "exp", "delay model: exp, det, uniform, pareto, arq")
	mean := flag.Float64("mean", 1, "expected link delay δ")
	drift := flag.Float64("drift", 1, "clock speed ratio s_high/s_low (1 = perfect clocks)")
	gamma := flag.Float64("gamma", 0, "expected processing time γ (0 = instantaneous)")
	loss := flag.Float64("loss", 0, "per-message loss probability in [0, 1) (fault injection)")
	crashRate := flag.Float64("crash", 0, "per-node exponential crash rate (fault injection)")
	recoverRate := flag.Float64("recover", 0, "crashed-node recovery rate (0 with -crash = crash-stop churn off)")
	equivocate := flag.Int("equivocate", 0, "make nodes 0..k-1 Byzantine equivocators (honoured by ben-or)")
	broadcast := flag.Bool("broadcast", false, "atomic local-broadcast medium instead of point-to-point links (honoured by ben-or)")
	horizon := flag.Float64("horizon", 0, "virtual-time bound (0 = unbounded, or 1000·δ when faults are on)")
	withTrace := flag.Bool("trace", false, "print the full causal trace")
	traceOut := flag.String("trace-out", "", "write the causal trace to FILE (implies tracing)")
	traceFormat := flag.String("trace-format", "chrome", "trace file format: chrome, jsonl or text (with -trace-out)")
	obsEvery := flag.Uint64("observe-every", 0, "sample a time series every K executed events (observe-capable protocols)")
	obsInterval := flag.Float64("observe-interval", 0, "sample a time series every T virtual time units")
	obsMax := flag.Int("observe-max", 0, "cap on stored samples (0 = 100000)")
	obsCSV := flag.String("observe-csv", "", "write the sampled series as CSV to FILE (\"-\" = stdout)")
	withCheck := flag.Bool("check", false, "also model-check the election exhaustively at this size (n <= 5)")
	liveMode := flag.Bool("live", false, "run on real goroutines/channels instead of the simulator")
	specPath := flag.String("spec", "", "run a declarative scenario file instead of building one from flags")
	dryRun := flag.Bool("dry-run", false, "with -spec: validate the file and print its hash without running")
	workers := flag.Int("workers", 0, "sweep parallelism for -spec sweeps (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "print the report as JSON (machine-readable)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	switch *traceFormat {
	case "chrome", "jsonl", "text":
	default:
		return fmt.Errorf("unknown -trace-format %q (chrome, jsonl or text)", *traceFormat)
	}
	if set["trace-format"] && *traceOut == "" {
		return fmt.Errorf("-trace-format picks the -trace-out file format; set -trace-out FILE (plain -trace always prints text)")
	}

	if *list {
		for _, name := range abenet.Protocols() {
			fmt.Println(name)
		}
		return nil
	}

	// The live runtime has no fault injection: naming both on one command
	// line is a contradiction, not a request to ignore the fault flags.
	if *liveMode && (set["loss"] || set["crash"] || set["recover"] || set["equivocate"] || set["broadcast"]) {
		return fmt.Errorf("-live cannot be combined with -loss/-crash/-recover/-equivocate/-broadcast: the live goroutine runtime has no fault injection; drop -live to run the plan on the simulator")
	}
	if *liveMode && (set["observe-every"] || set["observe-interval"]) {
		return fmt.Errorf("-live cannot be combined with -observe-every/-observe-interval: the live goroutine runtime has no event kernel to sample")
	}
	if *liveMode && (*withTrace || *traceOut != "") {
		return fmt.Errorf("-live cannot be combined with -trace/-trace-out: the live goroutine runtime has no event kernel to trace")
	}
	if *liveMode && set["scheduler"] {
		return fmt.Errorf("-live cannot be combined with -scheduler: the live goroutine runtime has no event kernel")
	}

	if *specPath != "" {
		// A spec file states the whole scenario; flags that would fight it
		// are rejected rather than silently losing.
		conflicting := []string{"proto", "topo", "n", "a0", "delay", "mean", "drift", "gamma",
			"loss", "crash", "recover", "equivocate", "broadcast", "horizon", "live", "check",
			"observe-every", "observe-interval", "observe-max"}
		var clash []string
		for _, name := range conflicting {
			if set[name] {
				clash = append(clash, "-"+name)
			}
		}
		if len(clash) > 0 {
			sort.Strings(clash)
			return fmt.Errorf("-spec states the scenario; drop %v (only -seed, -scheduler, -trace, -trace-out, -trace-format, -workers, -observe-csv, -json and -dry-run combine with it)", clash)
		}
		var seedOverride *uint64
		if set["seed"] {
			seedOverride = seed
		}
		// Like the seed, the scheduler is not part of the scenario identity
		// (runs are byte-identical across schedulers), so the flag composes
		// with a spec file as an override.
		var schedOverride *string
		if set["scheduler"] {
			schedOverride = scheduler
		}
		return runSpec(*specPath, seedOverride, schedOverride, *workers, *dryRun, *withTrace, *jsonOut, *obsCSV, *traceOut, *traceFormat)
	}
	if *dryRun {
		return fmt.Errorf("-dry-run requires -spec")
	}
	if set["a0"] && !*liveMode && *proto != "election" {
		return fmt.Errorf("-a0 cannot be combined with -proto %s: only the election protocol (and -live) has an activation parameter", *proto)
	}

	env := abenet.Env{Seed: *seed, Scheduler: *scheduler}
	switch *topo {
	case "ring":
		env.N = *n
	case "biring":
		env.Graph = abenet.BiRing(*n)
	case "complete":
		env.Graph = abenet.Complete(*n)
	case "hypercube":
		dim := 0
		for 1<<(dim+1) <= *n {
			dim++
		}
		env.Graph = abenet.Hypercube(dim)
	default:
		return fmt.Errorf("unknown topology %q", *topo)
	}
	size := env.N
	if env.Graph != nil {
		size = env.Graph.N() // hypercube rounds -n down to a power of two
	}

	switch *delayKind {
	case "exp":
		env.Delay = abenet.Exponential(*mean)
	case "det":
		env.Delay = abenet.Deterministic(*mean)
	case "uniform":
		env.Delay = abenet.Uniform(0, 2**mean)
	case "pareto":
		env.Delay = abenet.ParetoWithMean(*mean, 2)
	case "arq":
		// p = 0.5 with slots sized so the mean comes out right; declare
		// δ = slot/p so defaulted parameters (A0) stay balanced.
		env.Links = abenet.ARQLinks(0.5, *mean/2)
		env.Delta = *mean
	default:
		return fmt.Errorf("unknown delay model %q", *delayKind)
	}
	if *drift > 1 {
		env.Clocks = abenet.WanderingClocks(1, *drift, 1)
	} else if *drift < 1 {
		return fmt.Errorf("drift ratio %g must be >= 1", *drift)
	}
	if *gamma > 0 {
		env.Processing = abenet.Exponential(*gamma)
	}
	if *loss > 0 || *crashRate > 0 {
		env.Faults = &abenet.FaultPlan{
			Loss:        *loss,
			CrashRate:   *crashRate,
			RecoverRate: *recoverRate,
		}
	} else if *recoverRate > 0 {
		return fmt.Errorf("-recover %g needs -crash to recover from", *recoverRate)
	}
	if *equivocate > 0 {
		env.Byzantine = abenet.Equivocators(*equivocate)
	}
	env.LocalBroadcast = *broadcast
	if *horizon > 0 {
		env.Horizon = simtime.Time(*horizon)
	} else if env.Faults != nil {
		// Lossy runs can deadlock legitimately; bound them by default.
		env.Horizon = simtime.Time(1000 * *mean)
	}
	if *obsEvery > 0 || *obsInterval > 0 {
		env.Observe = &probe.Config{EveryEvents: *obsEvery, Interval: *obsInterval, MaxSamples: *obsMax}
	} else if set["observe-max"] || set["observe-csv"] {
		return fmt.Errorf("-observe-max/-observe-csv need a sampling cadence: set -observe-every and/or -observe-interval")
	}

	if *liveMode {
		rep, err := abenet.Run(env, abenet.LiveElection{A0: *a0})
		if err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(rep, "")
		}
		fmt.Printf("live run on %d goroutines (real concurrency, wall-clock delays)\n", *n)
		fmt.Printf("leader   : node %d (of %d leaders)\n", rep.LeaderIndex, rep.Leaders)
		fmt.Printf("messages : %d\n", rep.Messages)
		fmt.Printf("elapsed  : %s\n", rep.Extra.(abenet.LiveExtra).Elapsed)
		return nil
	}

	protocol, ok := abenet.ProtocolByName(*proto)
	if !ok {
		return fmt.Errorf("unknown protocol %q (try -list)", *proto)
	}
	if *proto == "election" {
		protocol = abenet.Election{A0: *a0}
	}

	// -check is flag-only validation: fail before the simulation runs, not
	// after it has already spent the work.
	if *withCheck && *n > 5 {
		return fmt.Errorf("-check supports n <= 5 (state space), got %d", *n)
	}

	if *withTrace || *traceOut != "" {
		env.Trace = &trace.Config{}
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
	if err := emitTrace(exp, *withTrace, *traceOut, *traceFormat, *jsonOut); err != nil {
		return err
	}
	if err := writeSeriesCSV(rep.Series, *obsCSV, *jsonOut); err != nil {
		return err
	}

	// Run the model check before rendering so its outcome can live inside
	// the JSON document: -json promises one parseable value on stdout.
	var check *abenet.CheckReport
	if *withCheck {
		report, err := abenet.CheckElection(abenet.CheckOptions{N: *n})
		if err != nil {
			return err
		}
		check = &report
	}

	if *jsonOut {
		out := reportJSON(rep, "")
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
		return encodeJSON(out)
	}
	printReport(rep, *topo, size)
	printTraceSummary(exp, *traceOut)
	if check != nil {
		verdict := "SAFE (exhaustive within 2 activations/node)"
		if !check.OK() {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(check.Violations))
		}
		fmt.Printf("model check         : %s — %d states, %d with a leader\n",
			verdict, check.StatesExplored, check.LeaderStates)
	}
	return nil
}

// runSpec executes (or just validates) a scenario file.
func runSpec(path string, seedOverride *uint64, schedOverride *string, workers int, dryRun, withTrace, jsonOut bool, obsCSV, traceOut, traceFormat string) error {
	s, err := spec.DecodeFile(path)
	if err != nil {
		return err
	}
	if seedOverride != nil {
		s.Env.Seed = *seedOverride
	}
	if schedOverride != nil {
		s.Env.Scheduler = *schedOverride
	}
	hash, err := s.Hash()
	if err != nil {
		return err
	}

	if dryRun {
		kind := "run"
		if s.Sweep != nil {
			kind = fmt.Sprintf("sweep over %v", s.Sweep.Xs)
		}
		if jsonOut {
			return encodeJSON(map[string]any{
				"spec":      path,
				"spec_hash": hash,
				"protocol":  s.Protocol.Name,
				"kind":      kind,
				"seed":      s.Env.Seed,
				"valid":     true,
			})
		}
		fmt.Printf("spec      : %s\n", path)
		fmt.Printf("hash      : %s\n", hash)
		fmt.Printf("protocol  : %s\n", s.Protocol.Name)
		fmt.Printf("kind      : %s\n", kind)
		fmt.Printf("seed      : %d\n", s.Env.Seed)
		fmt.Println("status    : valid")
		return nil
	}

	if s.Sweep != nil {
		if withTrace || traceOut != "" {
			return fmt.Errorf("-trace/-trace-out apply to single runs, not sweeps")
		}
		points, err := s.RunSweep(workers)
		if err != nil {
			return err
		}
		if jsonOut {
			return encodeJSON(map[string]any{
				"spec_hash": hash,
				"seed":      s.Env.Seed,
				"protocol":  s.Protocol.Name,
				"points":    spec.SweepView(points, s.Sweep.Metrics),
			})
		}
		table := abenet.PointsTable(fmt.Sprintf("%s (spec %s)", s.Protocol.Name, hash[:12]), "n",
			spec.FilterPoints(points, s.Sweep.Metrics))
		return table.Render(os.Stdout)
	}

	env, protocol, err := s.Build()
	if err != nil {
		return err
	}
	// The flags imply tracing even when the spec file carries no trace
	// block; a spec block's cap wins when both are present.
	if (withTrace || traceOut != "") && env.Trace == nil {
		env.Trace = &trace.Config{}
	}
	rep, err := abenet.Run(env, protocol)
	if err != nil {
		return err
	}
	exp := rep.Trace
	rep.Trace = nil
	if err := emitTrace(exp, withTrace, traceOut, traceFormat, jsonOut); err != nil {
		return err
	}
	if err := writeSeriesCSV(rep.Series, obsCSV, jsonOut); err != nil {
		return err
	}
	if jsonOut {
		out := reportJSON(rep, hash)
		if exp != nil {
			out["trace"] = traceJSON(exp)
		}
		return encodeJSON(out)
	}
	label := "ring"
	if s.Env.Topology != nil {
		label = s.Env.Topology.Name
	}
	size := env.N
	if env.Graph != nil {
		size = env.Graph.N()
	}
	fmt.Printf("spec                : %s (hash %s)\n", path, hash[:12])
	printReport(rep, label, size)
	printTraceSummary(exp, traceOut)
	return nil
}

// emitTrace renders the exported trace: the text dump for -trace (to
// stderr under -json so stdout stays one parseable value) and the chosen
// file format for -trace-out.
func emitTrace(exp *trace.Export, withTrace bool, traceOut, traceFormat string, jsonOut bool) error {
	if exp == nil {
		return nil
	}
	if withTrace {
		dest := io.Writer(os.Stdout)
		if jsonOut {
			dest = os.Stderr
		}
		if err := trace.WriteText(dest, exp); err != nil {
			return err
		}
		fmt.Fprintln(dest)
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	switch traceFormat {
	case "chrome":
		err = trace.WriteChrome(f, exp)
	case "jsonl":
		err = trace.WriteJSONL(f, exp)
	case "text":
		err = trace.WriteText(f, exp)
	}
	if err != nil {
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
func printTraceSummary(exp *trace.Export, traceOut string) {
	if exp == nil {
		return
	}
	s := causal.Summarize(exp)
	line := fmt.Sprintf("trace               : %d events", s.Events)
	if s.Dropped > 0 {
		line += fmt.Sprintf(" (%d more dropped past the cap)", s.Dropped)
	}
	fmt.Println(line)
	target := "deepest event"
	if s.Decision != 0 {
		target = "decision"
	}
	fmt.Printf("critical path       : %d edges (%d hops) to the %s — %.3f virtual time (%.3f message delay, %.3f local)\n",
		s.PathLen, s.Hops, target, s.Time, s.MessageTime, s.LocalTime)
	fmt.Printf("max relay depth     : %d\n", s.MaxHopDepth)
	if traceOut != "" {
		fmt.Printf("trace written       : %s\n", traceOut)
	}
}

// writeSeriesCSV renders the sampled time series as CSV: a header of
// time,event plus the gauge names, one row per sample. dest "-" streams to
// stdout (text mode only — under -json stdout carries the JSON document).
func writeSeriesCSV(s *probe.Series, dest string, jsonOut bool) error {
	if dest == "" {
		return nil
	}
	if s == nil {
		return fmt.Errorf("-observe-csv: the run produced no series (set a cadence via -observe-every/-observe-interval or a spec observe block)")
	}
	if dest == "-" {
		if jsonOut {
			return fmt.Errorf(`-observe-csv "-" cannot combine with -json (stdout is the JSON document); write the CSV to a file`)
		}
		return seriesCSV(s, os.Stdout)
	}
	f, err := os.Create(dest)
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

// reportJSON assembles the machine-readable report (the same metric map
// the sweep harness and abe-serve aggregate, so outputs diff cleanly).
func reportJSON(rep abenet.Report, specHash string) map[string]any {
	out := map[string]any{
		"protocol": rep.Protocol,
		"report":   rep,
		"metrics":  rep.Metrics(),
	}
	if specHash != "" {
		out["spec_hash"] = specHash
	}
	return out
}

// printJSON emits the machine-readable report.
func printJSON(rep abenet.Report, specHash string) error {
	return encodeJSON(reportJSON(rep, specHash))
}

func encodeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printReport renders the human-readable report shared by the flag path
// and the spec path.
func printReport(rep abenet.Report, envLabel string, size int) {
	fmt.Printf("protocol            : %s\n", rep.Protocol)
	fmt.Printf("environment         : %s(%d)\n", envLabel, size)
	if rep.Params != (abenet.Params{}) {
		fmt.Printf("ABE parameters      : δ=%.3g  s∈[%.3g,%.3g]  γ=%.3g\n",
			rep.Params.Delta, rep.Params.SLow, rep.Params.SHigh, rep.Params.Gamma)
	}
	if rep.Elected || rep.Leaders > 0 {
		fmt.Printf("leader              : node %d (of %d leaders)\n", rep.LeaderIndex, rep.Leaders)
	}
	fmt.Printf("virtual time        : %.3f\n", rep.Time)
	fmt.Printf("messages            : %d (%.2f per node)\n", rep.Messages, float64(rep.Messages)/float64(size))
	if rep.Transmissions > 0 {
		fmt.Printf("transmissions       : %d\n", rep.Transmissions)
	}
	if rep.Rounds > 0 {
		fmt.Printf("rounds              : %d\n", rep.Rounds)
	}
	if extra, ok := rep.Extra.(abenet.ElectionExtra); ok {
		fmt.Printf("activations         : %d\n", extra.Activations)
		fmt.Printf("knockouts           : %d\n", extra.Knockouts)
	}
	if extra, ok := rep.Extra.(abenet.ClockSyncExtra); ok {
		fmt.Printf("round violations    : %d (rate %.4f, max lateness %d)\n",
			extra.RoundViolations, extra.ViolationRate, extra.MaxLateness)
	}
	if extra, ok := rep.Extra.(abenet.SyncExtra); ok {
		fmt.Printf("messages per round  : %.1f\n", extra.MessagesPerRound)
	}
	consensus := false
	if extra, ok := rep.Extra.(abenet.ConsensusExtra); ok {
		consensus = true
		fmt.Printf("consensus           : %d/%d honest decided %d (agreement %v, validity %v, termination %v)\n",
			extra.Decided, extra.Honest, extra.Decision, extra.Agreement, extra.Validity, extra.Termination)
		fmt.Printf("coin flips          : %d (decision round %d)\n", extra.CoinFlips, extra.DecisionRound)
	}
	if tel := rep.Faults; tel != nil {
		fmt.Printf("faults injected     : %d (dropped %d, duplicated %d, delayed %d, dead letters %d, crashes %d)\n",
			tel.TotalFaults(), tel.MessagesDropped+tel.LinkDrops, tel.MessagesDuplicated,
			tel.MessagesDelayed, tel.DeadLetters, tel.Crashes)
		if tel.Crashes > 0 {
			fmt.Printf("node churn          : %d crashes, %d recoveries\n", tel.Crashes, tel.Recoveries)
			const maxIntervals = 10
			for i, iv := range tel.CrashIntervals {
				if i == maxIntervals {
					fmt.Printf("  ... %d more outages\n", len(tel.CrashIntervals)-maxIntervals)
					break
				}
				end := "end of run"
				if iv.End >= 0 {
					end = fmt.Sprintf("%.3f", iv.End)
				}
				fmt.Printf("  node %-3d down %.3f .. %s\n", iv.Node, iv.Start, end)
			}
		}
		if byz := tel.Byzantine; byz != nil && byz.Total() > 0 {
			fmt.Printf("adversary actions   : %d (equivocations %d, corruptions %d, omissions %d, stalls %d)\n",
				byz.Total(), byz.Equivocations, byz.Corruptions, byz.Omissions, byz.Stalls)
		}
		if !rep.Elected && rep.Leaders == 0 && !consensus {
			fmt.Printf("outcome             : no leader within the horizon (faults won this one)\n")
		}
	}
	if s := rep.Series; s != nil {
		line := fmt.Sprintf("series              : %d samples × %d gauges", len(s.Samples), len(s.Names))
		if s.Truncated > 0 {
			line += fmt.Sprintf(" (%d more truncated past the cap)", s.Truncated)
		}
		fmt.Println(line)
	}
	if len(rep.Violations) > 0 {
		fmt.Printf("VIOLATIONS          : %v\n", rep.Violations)
	}
}
