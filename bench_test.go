package abenet_test

import (
	"os"
	"testing"

	"abenet"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/experiments"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/spec"
)

// BenchmarkExperiments runs every experiment of the suite as a
// sub-benchmark, so the set cannot drift from experiments.All(). Each
// iteration executes the experiment in its reduced (Quick) configuration —
// the full configurations are run by cmd/abe-bench. Headline findings are
// attached as custom benchmark metrics so regressions in the *shape* of a
// result (growth exponents, violation rates, overhead factors) show up in
// benchmark diffs.
func BenchmarkExperiments(b *testing.B) {
	for _, exp := range experiments.All() {
		b.Run(exp.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fixed seed: each iteration measures the identical
				// deterministic workload (seed 1 quick mode, which the test
				// suite verifies to reproduce the claim). Varying the seed
				// here would make timings incomparable and the quick-mode
				// shape criteria — designed for that verified configuration
				// — statistically fragile.
				res, err := exp.Run(experiments.Options{Quick: true, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Pass {
					b.Fatalf("%s failed to reproduce its claim: %v", res.ID, res.Findings)
				}
				if i == b.N-1 { // report the last iteration's findings
					for name, v := range res.Findings {
						b.ReportMetric(v, name)
					}
				}
			}
		})
	}
}

// ---- Micro-benchmarks of the core building blocks ----

func BenchmarkSingleElection64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.Election{A0: abenet.DefaultA0(64)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkSingleElection512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 512, Seed: uint64(i)}, abenet.Election{A0: abenet.DefaultA0(512)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkItaiRodehSync64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.ItaiRodehSync{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

// BenchmarkClockSyncTorusSpec is the clock-sync scenario of the serving
// corpus end to end: decode examples/specs/clock_sync_torus.json and run it.
// Its allocs/op and B/op are what the clock synchronizer's heartbeat costs a
// served request.
func BenchmarkClockSyncTorusSpec(b *testing.B) {
	raw, err := os.ReadFile("examples/specs/clock_sync_torus.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := spec.DecodeBytes(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChangRoberts64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.ChangRoberts{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkModelCheckRing4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := abenet.CheckElection(abenet.CheckOptions{N: 4})
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() {
			b.Fatal("model check failed")
		}
	}
}

// ---- Benchmarks through the unified Run path ----
//
// These drive the Env/Protocol/Report API directly: one canonical election,
// one non-ring environment, and a registry pass that runs the protocols by
// name, as the spec codec and the CLIs resolve them.

func BenchmarkRunElection64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
	}
}

func BenchmarkRunElectionHypercube64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := abenet.Run(abenet.Env{Graph: abenet.Hypercube(6), Seed: uint64(i)}, abenet.Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
	}
}

// ---- Delivery-path allocation benchmark ----

// BenchmarkLinkDelivery measures the per-message cost of the pooled,
// batched delivery path in isolation: b.N sends through one link, drained
// in one kernel run. allocs/op is the headline — the payload pool and the
// batch event amortise what used to be one scheduled closure per message.
// Run at a large -benchtime (20000x) for the steady-state figure; the repo
// benchmark's channel.allocs_per_msg is the tracked number.
func BenchmarkLinkDelivery(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link
	}{
		{"random-delay", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewRandomDelay(k, dist.NewExponential(1), r, deliver)
		}},
		{"fifo", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewFIFO(k, dist.NewExponential(1), r, deliver)
		}},
		{"arq", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewARQ(k, 0.9, 1, r, deliver)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			kernel := sim.New()
			delivered := 0
			link := tc.make(kernel, rng.New(7), func(any) { delivered++ })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				link.Send(i)
			}
			if err := kernel.Run(simtime.Forever, 0); err != nil {
				b.Fatal(err)
			}
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
		})
	}
}

func BenchmarkRunRegistry16(b *testing.B) {
	// The whole registry on one default environment.
	for i := 0; i < b.N; i++ {
		for _, name := range abenet.Protocols() {
			p, ok := abenet.ProtocolByName(name)
			if !ok {
				b.Fatalf("%s missing from registry", name)
			}
			rep, err := abenet.Run(abenet.Env{N: 16, Seed: uint64(i)}, p)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			if rep.Messages == 0 {
				b.Fatalf("%s: no messages", name)
			}
		}
	}
}
