package experiments

import (
	"fmt"

	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/topology"
	"abenet/internal/trace"
	"abenet/internal/trace/causal"
)

// causalDepth is E15. It validates the paper's relay bound on the causal trace
// itself: Section 2's protocol forwards a token at most d+1 times (d the
// diameter of the election ring), so in the happens-before forest no
// deliver→send→deliver relay chain may grow deeper than d+1 — and each
// message's own hop counter must never undercount the chain that produced
// it. The election runs along the embedded Hamiltonian cycle of every
// topology, so the bound is the cycle length n = d+1 regardless of the
// host graph.
//
// Each cell traces full runs (Env.Trace), feeds the exported forest to
// causal.Analyze, and checks CheckHopBound(n) — the invariant as code. The
// critical-path split (message delay vs local queueing along the longest
// chain to the decision) rides along: under heavy-tail Pareto delays the
// message share grows while the bound still holds, which is the ABE premise
// (only E[delay] is bounded, yet the causal structure stays finite).
func causalDepth(opt Options) (*harness.Table, Findings, bool, error) {
	topologies := []struct {
		name  string
		graph *topology.Graph
		n     int
	}{
		{"ring-16", nil, 16},
		{"hypercube-16", topology.Hypercube(4), 16},
		{"complete-12", topology.Complete(12), 12},
	}
	delays := []dist.Dist{
		dist.NewExponential(1),
		dist.NewUniform(0, 2),
		dist.ParetoWithMean(1, 2), // heavy tail: infinite variance, mean 1
	}

	table := harness.NewTable(
		"E15: measured causal relay depth vs the d+1 bound (traced elections)",
		"topology", "delay", "bound d+1", "max depth", "mean depth", "path hops", "msg-time share", "violations")

	reps := opt.reps(30)
	violations := 0
	worstSlack := 1.0 // min over cells of bound/maxDepth; >= 1 iff the bound held everywhere
	for ti, topo := range topologies {
		bound := topo.n // d = n-1 on the embedded cycle
		for di, d := range delays {
			var maxDepth, sumDepth, pathHops, cellViolations int
			var msgShare float64
			for rep := 0; rep < reps; rep++ {
				env := runner.Env{
					N:     topo.n,
					Graph: topo.graph,
					Delay: d,
					Seed:  opt.Seed + uint64(ti*len(delays)+di)*104729 + uint64(rep)*7919,
					Trace: &trace.Config{},
				}
				if topo.graph != nil {
					env.N = 0
				}
				r, err := runner.Run(env, runner.Election{A0: core.DefaultA0(topo.n)})
				if err != nil {
					return nil, nil, false, err
				}
				if err := runner.RequireElected(r); err != nil {
					return nil, nil, false, fmt.Errorf("e15 %s/%s rep %d: %w", topo.name, d.Name(), rep, err)
				}
				a := causal.Analyze(r.Trace)
				cellViolations += len(a.CheckHopBound(bound))
				depth := a.MaxHopDepth()
				sumDepth += depth
				if depth > maxDepth {
					maxDepth = depth
				}
				if p := a.CriticalPath(); p != nil {
					pathHops += p.Hops
					if p.Total > 0 {
						msgShare += p.MessageTime / p.Total
					}
				}
			}
			violations += cellViolations
			if slack := float64(bound) / float64(maxDepth); slack < worstSlack {
				worstSlack = slack
			}
			table.AddRow(topo.name, d.Name(), fmt.Sprint(bound), fmt.Sprint(maxDepth),
				fmt.Sprintf("%.2f", float64(sumDepth)/float64(reps)),
				fmt.Sprintf("%.1f", float64(pathHops)/float64(reps)),
				fmt.Sprintf("%.0f%%", 100*msgShare/float64(reps)),
				fmt.Sprint(cellViolations))
		}
	}

	return table, Findings{
		"violations":        float64(violations),
		"worst_bound_slack": worstSlack,
	}, violations == 0 && worstSlack >= 1, nil
}
