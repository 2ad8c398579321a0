package election_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/faults"
	"abenet/internal/runner"
)

// The run-level tests of the baselines live in this external package: the
// node behaviours are election's, but a run is Run(Env, Protocol) — the
// import direction (runner → election) puts the tests on this side.

// The identity layouts under test.
const (
	ascending  = election.ArrangementAscending
	random     = election.ArrangementRandom
	descending = election.ArrangementDescending
)

// runSync runs the synchronous Itai–Rodeh baseline on a ring of size n.
func runSync(n int, q float64, seed uint64, maxRounds int) (runner.Report, error) {
	return runner.Run(runner.Env{N: n, Seed: seed, MaxRounds: maxRounds}, runner.ItaiRodehSync{Q: q})
}

func TestItaiRodehSyncElectsOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 64} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := runSync(n, 0, seed, 0)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.Elected || res.Leaders != 1 {
				t.Fatalf("n=%d seed=%d: leaders=%d", n, seed, res.Leaders)
			}
		}
	}
}

func TestItaiRodehSyncLinearMessages(t *testing.T) {
	mean := func(n int) float64 {
		const runs = 40
		total := 0.0
		for seed := uint64(0); seed < runs; seed++ {
			res, err := runSync(n, 0, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			total += float64(res.Messages)
		}
		return total / runs
	}
	m16, m128 := mean(16), mean(128)
	if ratio := m128 / m16; ratio > 16 {
		t.Fatalf("sync Itai-Rodeh messages grew %.1fx over 8x size (m16=%.1f, m128=%.1f)", ratio, m16, m128)
	}
}

func TestItaiRodehSyncDeterministic(t *testing.T) {
	a, err := runSync(16, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSync(16, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestItaiRodehSyncValidation(t *testing.T) {
	if _, err := election.NewItaiRodehSyncNode(1, 0.5, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := election.NewItaiRodehSyncNode(4, 0, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := election.NewItaiRodehSyncNode(4, 1.5, 0); err == nil {
		t.Fatal("q>1 accepted")
	}
	if _, err := runSync(1, 0, 1, 0); err == nil {
		t.Fatal("run with n=1 accepted")
	}
}

func TestItaiRodehSyncHighQStillTerminates(t *testing.T) {
	// q=1 means every node is a candidate every phase; termination then
	// requires n... it never succeeds for n >= 2 within the round budget.
	_, err := runSync(4, 1, 1, 200)
	if err == nil {
		t.Fatal("expected round-budget error at q=1 (permanent collisions)")
	}
}

func TestItaiRodehAsyncElectsOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 32} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.ItaiRodehAsync{})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.Elected || res.Leaders != 1 {
				t.Fatalf("n=%d seed=%d: leaders=%d", n, seed, res.Leaders)
			}
		}
	}
}

func TestItaiRodehAsyncProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw)%14
		res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.ItaiRodehAsync{})
		return err == nil && res.Elected && res.Leaders == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestItaiRodehAsyncSuperlinearVsRingSize(t *testing.T) {
	// The classic algorithm is Θ(n log n): growth over 8x size should land
	// clearly above 8x but far below quadratic's 64x.
	mean := func(n int) float64 {
		const runs = 30
		total := 0.0
		for seed := uint64(0); seed < runs; seed++ {
			res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.ItaiRodehAsync{})
			if err != nil {
				t.Fatal(err)
			}
			total += float64(res.Messages)
		}
		return total / runs
	}
	m16, m128 := mean(16), mean(128)
	ratio := m128 / m16
	if ratio < 7 || ratio > 40 {
		t.Fatalf("async Itai-Rodeh growth ratio %.1f outside n log n band (m16=%.1f m128=%.1f)", ratio, m16, m128)
	}
}

func TestChangRobertsElectsMaxID(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runner.Run(runner.Env{N: 16, Seed: seed}, runner.ChangRoberts{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Elected || res.Leaders != 1 {
			t.Fatalf("seed=%d: leaders=%d", seed, res.Leaders)
		}
	}
}

func TestChangRobertsArrangementsBracketCost(t *testing.T) {
	// Deterministic unit delays give lockstep token movement, so the
	// classic closed-form counts are exact (random delays perturb them:
	// early stop cuts in-flight tails, overtaking adds passive forwards).
	const n = 64
	runCost := func(a election.ChangRobertsArrangement) float64 {
		res, err := runner.Run(
			runner.Env{N: n, Delay: dist.NewDeterministic(1), Seed: 3},
			runner.ChangRoberts{Arrangement: a},
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 {
			t.Fatalf("arrangement %d: leaders=%d", a, res.Leaders)
		}
		return float64(res.Messages)
	}
	best := runCost(ascending)
	avg := runCost(random)
	worst := runCost(descending)
	// Best case: n-1 purged first-hop tokens + the winner's n-long loop.
	if best != 2*n-1 {
		t.Fatalf("best-case messages = %v, want %v", best, 2*n-1)
	}
	// Worst case: sum 1..n = n(n+1)/2.
	if worst != n*(n+1)/2 {
		t.Fatalf("worst-case messages = %v, want %v", worst, n*(n+1)/2)
	}
	if !(best <= avg && avg <= worst) {
		t.Fatalf("cost ordering violated: best %v, avg %v, worst %v", best, avg, worst)
	}
}

func TestChangRobertsWorstCaseQuadratic(t *testing.T) {
	cost := func(n int) float64 {
		res, err := runner.Run(runner.Env{N: n, Seed: 1}, runner.ChangRoberts{Arrangement: descending})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Messages)
	}
	c16, c64 := cost(16), cost(64)
	// Quadratic: 4x size => ~16x messages.
	if ratio := c64 / c16; ratio < 12 {
		t.Fatalf("worst-case growth ratio %.1f not quadratic", ratio)
	}
}

func TestChangRobertsRobustToDelayShape(t *testing.T) {
	// Correctness must hold for any delay shape; the best-case message
	// count 2n−1 is exact under deterministic delays and a lower bound in
	// general (reordering can only add passive forwards).
	for _, d := range []dist.Dist{dist.NewDeterministic(1), dist.NewExponential(1), dist.ParetoWithMean(1, 2)} {
		res, err := runner.Run(runner.Env{N: 32, Delay: d, Seed: 2}, runner.ChangRoberts{Arrangement: ascending})
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 {
			t.Fatalf("%s: leaders = %d", d.Name(), res.Leaders)
		}
		if res.Messages < 2*32-1 {
			t.Fatalf("%s: messages = %d below the 2n−1 floor", d.Name(), res.Messages)
		}
	}
}

func TestChangRobertsValidation(t *testing.T) {
	if _, err := runner.Run(runner.Env{N: 1}, runner.ChangRoberts{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := runner.Run(runner.Env{N: 4}, runner.ChangRoberts{Arrangement: 99}); err == nil {
		t.Fatal("unknown arrangement accepted")
	}
}

func TestIdentityArrangements(t *testing.T) {
	asc, err := election.IdentityArrangement(5, ascending, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range asc {
		if id != i+1 {
			t.Fatalf("ascending = %v", asc)
		}
	}
	desc, err := election.IdentityArrangement(5, descending, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range desc {
		if id != 5-i {
			t.Fatalf("descending = %v", desc)
		}
	}
	rnd, err := election.IdentityArrangement(50, random, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, 50)
	for _, id := range rnd {
		if id < 1 || id > 50 || seen[id] {
			t.Fatalf("random arrangement invalid: %v", rnd)
		}
		seen[id] = true
	}
}

// TestRunPetersonRejectsFaultPlans pins that Peterson's reliable-FIFO step
// protocol refuses fault plans with the typed capability error instead of
// reporting a crash as a measurement.
func TestRunPetersonRejectsFaultPlans(t *testing.T) {
	_, err := runner.Run(runner.Env{N: 6, Seed: 1, Faults: &faults.Plan{Loss: 0.1}}, runner.Peterson{})
	if !errors.Is(err, runner.ErrFaultsUnsupported) {
		t.Fatalf("Peterson with a fault plan: Run = %v, want ErrFaultsUnsupported", err)
	}
}
