package experiments

import (
	"fmt"
	"math"
	"strings"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// suite is the claim table, in order. It is a function of the options only
// because a Quick run measures fewer positions and fewer topologies.
func suite(opt Options) []claim {
	scalingSizes := opt.sizes([]float64{8, 16, 32, 64, 128, 256}) // the E3/E4/E7 ring sizes
	completeSizes := []int{8, 11}                                 // the E14 complete graphs
	if opt.Quick {
		completeSizes = completeSizes[:1]
	}
	return []claim{{
		// Section 1(iii): k_avg = Σ (k+1)(1−p)^k·p = 1/p, and with unit slots
		// the average delay is 1/p as well.
		id: "E1", name: "retransmission delay (k_avg = 1/p)",
		text:  "lossy channel with success probability p: k_avg = 1/p transmissions, expected delay 1/p",
		parts: []part{{run: retransmission}},
	}, {
		id: "E2", name: "election correctness",
		text:  "the election algorithm elects exactly one leader on anonymous unidirectional ABE rings",
		parts: []part{{run: correctness}},
	}, {
		// The headline: exponent ≈ 1, against Ω(n log n) for asynchronous rings.
		id: "E3", name: "message complexity vs n",
		text:  "average message complexity of the ABE election is linear in n",
		parts: []part{scaling("e3", "E3: messages vs ring size (A0 = 1/n², δ = 1)", "messages", scalingSizes)},
	}, {
		// Part b is the tail: ABE delays are unbounded, so the election time has
		// one too — exponentially decaying, as the algorithm retries geometrically.
		id: "E4", name: "time complexity vs n",
		text: "average time complexity of the ABE election is linear in n",
		parts: []part{
			scaling("e4", "E4: election time vs ring size (A0 = 1/n², δ = 1)", "time", scalingSizes),
			{run: timeTail},
		},
	}, {
		// Using 1−(1−A0)^d keeps the overall wake-up rate constant; replacing
		// it with a constant per-node probability stalls the endgame.
		id: "E5", name: "adaptive-activation ablation",
		text: "the d-adaptive wake-up rule is necessary: constant activation degrades time to superlinear",
		parts: []part{{
			title: "E5: adaptive 1−(1−A0)^d vs constant A0 activation (A0 = 1/n²)",
			reps:  60,
			blocks: []block{{arms: []arm{
				sizeArm("e5-adaptive", runner.Env{}, runner.Election{}, opt.sizes([]float64{8, 16, 32, 64, 96})),
				sizeArm("e5-constant", runner.Env{}, runner.Election{ConstantActivation: true}, opt.sizes([]float64{8, 16, 32, 64, 96})),
			}}},
			cols: []col{
				colX("n"),
				colMean("adaptive time", 0, "time", "%.1f"),
				colMean("constant time", 1, "time", "%.1f"),
				colRatio("slowdown", 1, 0, "time"),
				colMean("adaptive msgs", 0, "messages", "%.1f"),
				colMean("constant msgs", 1, "messages", "%.1f"),
			},
			footer: fitFooter("fit", "time", "exp %.2f", 0, 1),
			judge: func(s *sweeps) (Findings, bool) {
				adaptive, constant := s.fit(0, "time").Slope, s.fit(1, "time").Slope
				// The growth orders must be clearly separated.
				return Findings{"adaptive_time_exponent": adaptive, "constant_time_exponent": constant}, constant > adaptive+0.4
			},
		}},
	}, {
		// The aggressiveness c in A0 = c/n² trades waiting time (small c)
		// against knockout collisions (large c).
		id: "E6", name: "A0 trade-off sweep",
		text: "A0 trades time (small A0: long waits) against messages (large A0: more collisions)",
		parts: []part{{
			title: "E6: aggressiveness sweep at n = 64 (A0 = c/n²)",
			reps:  100,
			blocks: []block{{arms: []arm{{
				name: "e6", xs: []float64{0.25, 0.5, 1, 2, 4, 8},
				build: func(c float64) (runner.Env, runner.Protocol, error) {
					return runner.Env{N: 64}, runner.Election{A0: core.A0ForRing(64, 1, 1, c)}, nil
				},
			}}}},
			cols: []col{
				colX("c"),
				{"A0", func(r row) string { return fmt.Sprintf("%.2e", core.A0ForRing(64, 1, 1, r.x())) }},
				colMean("messages", 0, "messages", "%.1f"),
				colMean("time", 0, "time", "%.1f"),
				colMean("activations", 0, "activations", "%.2f"),
			},
			judge: func(s *sweeps) (Findings, bool) {
				time := s.mean(0, 0, 0, "time") / s.mean(0, 0, s.last(), "time")
				messages := s.mean(0, 0, s.last(), "messages") / s.mean(0, 0, 0, "messages")
				// The trade-off claim: time falls with c, messages rise with c.
				f := Findings{"time_ratio_smallest_over_largest_c": time, "msg_ratio_largest_over_smallest_c": messages}
				return f, time > 1 && messages > 1
			},
		}},
	}, {
		// The paper's efficiency positioning: the ABE election's average
		// complexity matches the best election for anonymous synchronous rings
		// (Itai–Rodeh style, linear), while the classic asynchronous baselines
		// sit in the Θ(n log n) class of the lower bound the paper cites.
		id: "E7", name: "baseline comparison",
		text: "ABE election ≈ best synchronous anonymous election (linear); async baselines are Θ(n log n)",
		parts: []part{{
			title: "E7: mean messages by algorithm and ring size",
			reps:  60,
			blocks: []block{{arms: []arm{
				sizeArm("e7-abe", runner.Env{}, runner.Election{}, scalingSizes),
				sizeArm("e7-irsync", runner.Env{}, runner.ItaiRodehSync{}, scalingSizes),
				sizeArm("e7-irasync", runner.Env{}, runner.ItaiRodehAsync{}, scalingSizes),
				sizeArm("e7-cr", runner.Env{}, runner.ChangRoberts{}, scalingSizes),
				sizeArm("e7-peterson", runner.Env{}, runner.Peterson{}, scalingSizes),
			}}},
			cols: []col{
				colX("n"),
				colMean("ABE election", 0, "messages", "%.1f"),
				colMean("Itai-Rodeh sync", 1, "messages", "%.1f"),
				colMean("Itai-Rodeh async (FIFO)", 2, "messages", "%.1f"),
				colMean("Chang-Roberts (IDs)", 3, "messages", "%.1f"),
				colMean("Peterson (IDs, FIFO)", 4, "messages", "%.1f"),
			},
			footer: fitFooter("fit exp.", "messages", "%.2f", 0, 1, 2, 3, 4),
			judge: func(s *sweeps) (Findings, bool) {
				f := Findings{}
				for a, name := range []string{"abe", "ir_sync", "ir_async", "cr", "peterson"} {
					f[name+"_exponent"] = s.fit(a, "messages").Slope
				}
				abe := s.mean(0, 0, s.last(), "messages")
				f["ir_async_over_abe_at_largest_n"] = s.mean(0, 2, s.last(), "messages") / abe
				f["cr_over_abe_at_largest_n"] = s.mean(0, 3, s.last(), "messages") / abe
				// The claim has two parts. (1) ABE election is in the linear
				// class, like the synchronous-ring optimum: growth exponents
				// ≈ 1, clearly below quadratic. (2) The asynchronous baselines
				// pay more on the same rings: over short n ranges an n log n
				// exponent is hard to separate from 1.1, so the robust signal
				// is the constant-factor gap at the largest size plus
				// Chang-Roberts' clearly super-linear fit.
				return f, f["abe_exponent"] < 1.25 && f["ir_sync_exponent"] < 1.25 &&
					f["ir_async_over_abe_at_largest_n"] > 1.5 && f["cr_exponent"] > 1.15
			},
		}},
	}, {
		// Theorem 1 and its consequence. Part (a): messages per round of each
		// synchronizer across topologies, all ≥ n (Awerbuch's bound). Part (b):
		// the synchronous Itai–Rodeh election over the round synchronizer on
		// an ABE ring against the native ABE election — synchronisation
		// multiplies the cost by Θ(rounds), the paper's "we cannot run
		// synchronous algorithms in ABE networks without losing the message
		// complexity".
		id: "E8", name: "synchronizer cost (Theorem 1)",
		text: "synchronising an ABE network costs ≥ n messages/round; synchronous algorithms lose their message complexity",
		parts: []part{{run: synchronizerCost}, {
			title: "E8b: native ABE election vs Itai-Rodeh-sync over the round synchronizer (same ABE ring)",
			reps:  40,
			blocks: []block{{arms: []arm{
				sizeArm("e8b-native", runner.Env{}, runner.Election{}, []float64{8, 16, 32, 64}),
				sizeArm("e8b-sync", runner.Env{MaxRounds: 100_000}, runner.SynchronizedElection{}, []float64{8, 16, 32, 64}),
			}}},
			cols: []col{
				colX("n"),
				colMean("native msgs", 0, "messages", "%.1f"),
				colMean("synchronized msgs", 1, "messages", "%.1f"),
				colRatio("overhead", 1, 0, "messages"),
				colMean("sync rounds", 1, "rounds", "%.1f"),
			},
			judge: func(s *sweeps) (Findings, bool) {
				overhead := func(i int) float64 { return s.mean(0, 1, i, "messages") / s.mean(0, 0, i, "messages") }
				// Overhead must grow with n (the synchronized cost is superlinear).
				return Findings{"overhead_at_largest_n": overhead(s.last())}, overhead(s.last()) > overhead(0)
			},
		}},
	}, {
		id: "E9", name: "ABD synchronizer on ABE delays",
		text:  "clock-driven ABD synchronizers fail on ABE networks: positive round-violation rate for every period",
		parts: []part{{run: clockSynchronizer}},
	}, {
		// Shape changes constants, not correctness or the complexity class.
		id: "E10", name: "delay-shape robustness",
		text: "ABE behaviour depends on the delay's mean, not its shape (Definition 1 uses only E[delay])",
		parts: []part{variants("E10: delay-distribution robustness at n = 64 (all means = 1)", "distribution", 100,
			each([]dist.Dist{
				dist.NewDeterministic(1),
				dist.NewUniform(0, 2),
				dist.NewExponential(1),
				dist.ParetoWithMean(1, 1.5),
				dist.ParetoWithMean(1, 3),
				dist.NewRetransmission(0.5, 0.5),
				dist.NewErlang(4, 1),
				dist.NewBimodal(dist.NewDeterministic(0.5), dist.NewDeterministic(5.5), 0.1),
			}, func(d dist.Dist) block {
				return variant(d.Name(), "e10/"+d.Name(), 64, runner.Env{Delay: d})
			}),
			func(s *sweeps) (Findings, bool) {
				least, most := math.Inf(1), math.Inf(-1)
				for b := range s.blocks {
					least, most = min(least, s.mean(b, 0, 0, "messages")), max(most, s.mean(b, 0, 0, "messages"))
				}
				// Constants move, the class does not.
				return Findings{"message_spread_across_shapes": most / least}, most/least < 2.5
			})},
	}, {
		// Definition 1 condition 2: clock-speed bounds affect constants only.
		id: "E11", name: "clock-drift robustness",
		text: "clock drift within [s_low, s_high] changes constants, not correctness or linearity",
		parts: []part{variants("E11: clock-speed bound ratio at n = 64 (rates in [1, r], wandering)", "s_high/s_low", 80,
			each([]float64{1, 2, 4, 8}, func(r float64) block {
				var clocks clock.Model = clock.PerfectModel{}
				if r > 1 {
					clocks = clock.NewWanderingModel(1, r, 1)
				}
				return variant(fmt.Sprintf("%g", r), fmt.Sprintf("e11/r=%g", r), r, runner.Env{Clocks: clocks})
			}),
			func(s *sweeps) (Findings, bool) {
				first, last := s.mean(0, 0, 0, "time"), s.mean(len(s.blocks)-1, 0, 0, "time")
				// Faster clocks tick more often, so real time shrinks — by a
				// bounded constant, not a complexity change.
				return Findings{"time_ratio_r8_over_r1": last / first}, last > first/16 && last < first*16
			})},
	}, {
		// Definition 1 condition 3: a bound γ shifts the constants additively.
		id: "E12", name: "processing-time robustness",
		text: "expected processing time γ adds a bounded constant factor",
		parts: []part{variants("E12: processing-time bound γ at n = 64 (exponential processing)", "γ", 80,
			each([]float64{0, 0.1, 0.5, 1}, func(g float64) block {
				var processing dist.Dist
				if g > 0 {
					processing = dist.NewExponential(g)
				}
				return variant(fmt.Sprintf("%g", g), fmt.Sprintf("e12/g=%g", g), g, runner.Env{Processing: processing})
			}),
			func(s *sweeps) (Findings, bool) {
				first, last := s.mean(0, 0, 0, "time"), s.mean(len(s.blocks)-1, 0, 0, "time")
				return Findings{"time_ratio_g1_over_g0": last / first}, last > first && last < first*4
			})},
	}, {
		// Section 1 case (iii) as a fault experiment: *raw* loss breaks
		// guaranteed termination of the election (tokens vanish; the rate of
		// termination within a fixed horizon decays with the loss probability),
		// while stop-and-wait ARQ over the same physical loss restores certain
		// termination at the price of delay — mean slot/p, expected-time
		// inflation 1/p — the regime the ABE model was built to capture.
		id: "E13", name: "election under loss (plain vs ARQ)",
		text: "raw message loss degrades election termination; ARQ links restore it at a 1/p delay cost (case (iii))",
		parts: []part{{
			title: fmt.Sprintf("E13: election under loss 0–20%% (horizon %v, plain vs ARQ links)", lossHorizon),
			reps:  60,
			blocks: []block{
				lossBlock("ring", runner.Env{N: 8}),
				lossBlock("hypercube", runner.Env{Graph: topology.Hypercube(3)}),
			},
			cols: []col{
				colLabel("topology"),
				{"loss", func(r row) string { return fmt.Sprintf("%.0f%%", r.x()*100) }},
				colPercent("plain: terminated", 0, "elected"),
				colMean("plain: time", 0, "time", "%.1f"),
				colMean("plain: dropped", 0, "fault_dropped", "%.1f"),
				colPercent("arq: terminated", 1, "elected"),
				colMean("arq: time", 1, "time", "%.1f"),
				{"arq: retries", func(r row) string {
					return fmt.Sprintf("%.2f", r.mean(1, "transmissions")/r.mean(1, "messages"))
				}},
			},
			judge: func(s *sweeps) (Findings, bool) {
				f, pass := Findings{}, true
				for b, topo := range s.blocks {
					for i := range lossLevels {
						pass = s.mean(b, 1, i, "elected") == 1 && pass // ARQ must never lose a message
					}
					// Loss-free plain runs must always elect; the lossiest must
					// not beat them (termination is monotone enough to compare
					// the endpoints without flaking on middle positions).
					clean, lossiest := s.mean(b, 0, 0, "elected"), s.mean(b, 0, s.last(), "elected")
					pass = pass && clean == 1 && lossiest <= clean
					f["plain_term_rate_at_20_"+topo.label] = lossiest
					f["arq_time_inflation_at_20_"+topo.label] = s.mean(b, 1, s.last(), "time") / s.mean(b, 1, 0, "time")
				}
				return f, pass
			},
		}},
	}, {
		// The Khan & Vaidya local-broadcast separation on the ABE kernel:
		// Ben-Or provisioned at the f < n/3 edge, swept over the number of
		// equivocators e, on point-to-point links and on the atomic
		// local-broadcast medium. Point-to-point, an equivocator tells every
		// neighbour a different value, so the polluted quorums stop reaching
		// the unanimous decide threshold while safety (agreement, validity
		// over honest nodes) still holds — safe but not terminating. The
		// broadcast medium delivers one transmission identically to all
		// neighbours, equivocation degrades to consistent corruption, and the
		// same adversary budget keeps terminating.
		//
		// "Safe at every e < n/3" is an empirical reading, not a theorem of
		// plain Ben-Or (whose own Byzantine bound is n > 5f): it holds at base
		// seed 1 and fails at 2 and 6 of 1–10, where broadcast runs lose
		// agreement (runner's TestBenOrLosesAgreementPastItsBound pins one).
		id: "E14", name: "byzantine consensus: point-to-point vs local broadcast",
		text: "local broadcast tolerates strictly more equivocators than point-to-point at equal f; expected-delay bounds suffice for termination",
		parts: []part{{
			title:  fmt.Sprintf("E14: Ben-Or under e equivocators, point-to-point vs local broadcast (common coin, split start, %d-round budget)", benOrMaxRounds),
			reps:   30,
			blocks: each(completeSizes, equivocatorBlock),
			cols: []col{
				colLabel("topology"),
				colX("e"),
				{"p2p: safe", func(r row) string { return fmt.Sprint(safe(r.s, r.b, 0, r.i)) }},
				colPercent("p2p: terminated", 0, "termination"),
				colMean("p2p: rounds", 0, "rounds", "%.1f"),
				{"bcast: safe", func(r row) string { return fmt.Sprint(safe(r.s, r.b, 1, r.i)) }},
				colPercent("bcast: terminated", 1, "termination"),
				colMean("bcast: rounds", 1, "rounds", "%.1f"),
				colMean("bcast: corruptions", 1, "byz_corruptions", "%.1f"),
			},
			judge: func(s *sweeps) (Findings, bool) {
				f, pass := Findings{}, true
				for b, topo := range s.blocks {
					// tolerated[arm] is the largest e such that every level up to
					// e kept agreement, validity AND termination in every run.
					tolerated := [2]int{-1, -1}
					for a := range tolerated {
						for i := range topo.arms[a].xs {
							if !safe(s, b, a, i) || s.mean(b, a, i, "termination") != 1 {
								break
							}
							tolerated[a] = i
						}
					}
					for i := range topo.arms[0].xs {
						// Safety must hold on BOTH media at every e < n/3: the
						// medium changes what terminates, never what is decided.
						// And broadcast leaves no equivocations standing.
						pass = safe(s, b, 0, i) && safe(s, b, 1, i) && s.mean(b, 1, i, "byz_equivocations") == 0 && pass
					}
					f["tolerated_p2p_"+topo.label] = float64(tolerated[0])
					f["tolerated_bcast_"+topo.label] = float64(tolerated[1])
					// The separation itself: at equal provisioning, broadcast
					// must tolerate strictly more equivocators on this topology.
					pass = pass && tolerated[1] > tolerated[0]
				}
				return f, pass
			},
		}, {
			// Part b: the ABE premise. Termination survives any delay family
			// with a bounded mean — heavy-tailed Pareto included — because a
			// round completes at the (n−f)'th arrival, of finite expectation.
			title: "E14b: honest Ben-Or (n=8, f=2) across delay families with mean 1",
			reps:  30,
			blocks: []block{
				delayFamilyBlock(0, "deterministic(1)", dist.NewDeterministic(1)),
				delayFamilyBlock(1, "uniform(0.5,1.5)", dist.NewUniform(0.5, 1.5)),
				delayFamilyBlock(2, "exponential(1)", dist.NewExponential(1)),
				delayFamilyBlock(3, "pareto(mean 1, α=1.5)", dist.ParetoWithMean(1, 1.5)),
			},
			cols: []col{
				colLabel("delay family"),
				colPercent("terminated", 0, "termination"),
				colMean("mean time", 0, "time", "%.1f"),
				colMean("mean decision round", 0, "decision_round", "%.1f"),
				colMean("messages", 0, "messages", "%.0f"),
			},
			judge: func(s *sweeps) (Findings, bool) {
				f, pass := Findings{}, true
				for b, family := range s.blocks {
					pass = s.mean(b, 0, 0, "termination") == 1 && s.mean(b, 0, 0, "agreement") == 1 && pass
					name, _, _ := strings.Cut(family.label, "(")
					f["time_"+name] = s.mean(b, 0, 0, "time")
				}
				return f, pass
			},
		}},
	}, {
		id: "E15", name: "causal relay depth vs the d+1 bound",
		text:  "causal relay depth never exceeds d+1 = n on the election ring, for every topology and delay shape (incl. heavy-tail Pareto)",
		parts: []part{{run: causalDepth}},
	}, {
		id: "E16", name: "million-node scaling ladder (schedulers × sizes)",
		text:  "a single ring election at n = 10⁶ completes in memory on one machine; schedulers agree byte-for-byte",
		parts: []part{{run: scale}},
	}}
}

// each is one block per value.
func each[T any](values []T, blockOf func(T) block) []block {
	blocks := make([]block, len(values))
	for i, v := range values {
		blocks[i] = blockOf(v)
	}
	return blocks
}

// sizeArm sweeps a protocol over ring sizes on base; every run must elect.
// The zero Election is the ABE election at the paper's balanced default,
// A0 = 1/n² on unit delays and ticks.
func sizeArm(name string, base runner.Env, p runner.Protocol, sizes []float64) arm {
	return arm{name, sizes, harness.Sizes(base, p), runner.RequireElected}
}

// scaling is the E3/E4 shape: one metric of the election against the ring
// size, with a growth exponent that must sit clearly below the n log n band.
func scaling(name, title, metric string, sizes []float64) part {
	return part{
		title:  title,
		reps:   100,
		blocks: []block{{arms: []arm{sizeArm(name, runner.Env{}, runner.Election{}, sizes)}}},
		cols:   []col{colX("n"), colMeanCI(metric+" (mean ± ci95)", 0, metric), colPerX(metric+" / n", 0, metric)},
		footer: func(s *sweeps) []string {
			fit := s.fit(0, metric)
			return []string{"fit", fmt.Sprintf("exponent %.3f", fit.Slope), fmt.Sprintf("R²=%.4f", fit.R2)}
		},
		judge: func(s *sweeps) (Findings, bool) {
			fit := s.fit(0, metric)
			return Findings{"growth_exponent": fit.Slope, "r2": fit.R2}, fit.Slope < 1.25
		},
	}
}

// variants is the E10–E12 shape: the n = 64 election under one variation of
// the environment per row.
func variants(title, header string, reps int, blocks []block, judge func(*sweeps) (Findings, bool)) part {
	return part{
		title: title, reps: reps, blocks: blocks, judge: judge,
		cols: []col{
			colLabel(header),
			colMean("messages", 0, "messages", "%.1f"),
			colMean("time", 0, "time", "%.1f"),
			colAll("leaders=1"),
		},
	}
}

// variant is one row of variants: a single-position sweep of its own, so
// its runs are seeded by its name alone.
func variant(label, name string, x float64, env runner.Env) block {
	env.N = 64
	return block{label, []arm{{name, []float64{x}, func(float64) (runner.Env, runner.Protocol, error) {
		return env, runner.Election{A0: core.DefaultA0(64)}, nil
	}, runner.RequireElected}}}
}

// lossLevels is the E13 loss-probability axis (acceptance range 0–20%).
var lossLevels = []float64{0, 0.05, 0.10, 0.20}

// lossHorizon bounds each E13 run: under raw loss the election can
// (correctly) deadlock once every token is destroyed, so termination within
// the horizon is the measured quantity, not a given.
const lossHorizon = simtime.Time(2000)

// lossBlock is one E13 topology: the same physical loss on plain and ARQ links.
func lossBlock(label string, base runner.Env) block {
	base.Horizon = lossHorizon
	return block{label, []arm{{
		// Plain arm: messages are destroyed outright with probability x.
		// Non-termination is the measurement, so no run is checked.
		name: "e13/plain/" + label, xs: lossLevels,
		build: func(x float64) (runner.Env, runner.Protocol, error) {
			env := base
			env.Faults = &faults.Plan{Loss: x}
			return env, runner.Election{}, nil
		},
	}, {
		// ARQ arm: the same per-transmission loss rate handled by
		// stop-and-wait retransmission — no message is ever lost, each just
		// takes Geometric(1-x) slots. Delta declares the inflated δ so the
		// election's balanced A0 adapts to the slower network.
		name: "e13/arq/" + label, xs: lossLevels,
		build: func(x float64) (runner.Env, runner.Protocol, error) {
			env := base
			env.Links = channel.ARQFactory(1-x, 1)
			env.Delta = 1 / (1 - x)
			return env, runner.Election{}, nil
		},
		check: runner.RequireElected,
	}}}
}

// benOrMaxRounds caps each Ben-Or run of E14: a configuration that cannot
// decide (point-to-point quorums polluted past the decide threshold) halts
// there, so "termination rate" is measured against a fixed round budget
// instead of a wall-clock horizon.
const benOrMaxRounds = 60

// equivocatorBlock is one E14 topology: Ben-Or on the complete graph of n
// nodes provisioned at f = ⌊(n−1)/3⌋ under e = 0..f equivocators, per medium.
func equivocatorBlock(n int) block {
	f := (n - 1) / 3
	levels := make([]float64, f+1)
	for e := range levels {
		levels[e] = float64(e)
	}
	label := fmt.Sprintf("complete-%d", n)
	medium := func(name string, broadcast bool) arm {
		return arm{name: "e14/" + name + "/" + label, xs: levels, build: func(x float64) (runner.Env, runner.Protocol, error) {
			env := runner.Env{Graph: topology.Complete(n), MaxRounds: benOrMaxRounds, LocalBroadcast: broadcast}
			env.Byzantine = byzantine.Equivocators(int(x))
			return env, runner.BenOr{F: f, Init: "half", Coin: "common"}, nil
		}}
	}
	return block{label, []arm{medium("p2p", false), medium("bcast", true)}}
}

// safe: every run at the position kept agreement and validity.
func safe(s *sweeps, b, a, i int) bool {
	return s.mean(b, a, i, "agreement") == 1 && s.mean(b, a, i, "validity") == 1
}

// delayFamilyBlock is one E14b row: honest Ben-Or under one delay law.
func delayFamilyBlock(i int, label string, delay dist.Dist) block {
	return block{label, []arm{{name: "e14b/" + label, xs: []float64{float64(i)}, build: func(float64) (runner.Env, runner.Protocol, error) {
		return runner.Env{Graph: topology.Complete(8), Delay: delay, MaxRounds: benOrMaxRounds},
			runner.BenOr{F: 2, Init: "half", Coin: "common"}, nil
	}}}}
}
