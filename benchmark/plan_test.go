package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"abenet/internal/spec"
)

// Same seed ⇒ byte-identical plan; another seed ⇒ another plan.
func TestPlanDeterminism(t *testing.T) {
	render := func(plan []planned) []byte {
		var b bytes.Buffer
		for _, p := range plan {
			fmt.Fprintf(&b, "%d %d %d\n", p.scenario, p.seed, p.repeatOf)
		}
		return b.Bytes()
	}
	a, b := planRequests(5000, 7, 9), planRequests(5000, 7, 9)
	if !bytes.Equal(render(a), render(b)) {
		t.Fatal("two plans from one seed differ")
	}
	if bytes.Equal(render(a), render(planRequests(5000, 8, 9))) {
		t.Fatal("plans from different seeds are equal")
	}
	if !bytes.Equal(render(a[:1000]), render(planRequests(1000, 7, 9))) {
		t.Fatal("a shorter plan is not a prefix of a longer one")
	}
}

func TestPlanShape(t *testing.T) {
	const n, scenarios = 20000, 9
	plan := planRequests(n, 3, scenarios)
	repeats := 0
	seen := map[[2]uint64]bool{}
	for i, p := range plan {
		if p.scenario < 0 || p.scenario >= scenarios {
			t.Fatalf("request %d names scenario %d", i, p.scenario)
		}
		key := [2]uint64{uint64(p.scenario), p.seed}
		if p.repeatOf < 0 {
			if seen[key] {
				t.Fatalf("first submission %d reuses (scenario, seed) %v", i, key)
			}
			seen[key] = true
			continue
		}
		repeats++
		first := plan[p.repeatOf]
		if p.repeatOf >= i || first.repeatOf >= 0 || first.scenario != p.scenario || first.seed != p.seed {
			t.Fatalf("repeat %d → %d is not an earlier first submission of the same (scenario, seed)", i, p.repeatOf)
		}
	}
	if share := float64(repeats) / n; math.Abs(share-repeatFraction) > 0.02 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatFraction)
	}
}

// The generated simulator specs decode, carry the unit seed and scheduler,
// and are the same bytes every time.
func TestSimSpecsGenerate(t *testing.T) {
	for _, w := range simWorkloads {
		raw := w.specBytes(unitSeed(5, 2), "calendar")
		if !bytes.Equal(raw, w.specBytes(unitSeed(5, 2), "calendar")) {
			t.Errorf("%s: spec bytes differ between two generations", w.name)
		}
		sp, err := spec.DecodeBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if sp.Env.Seed != 5*1_000_003+2 || sp.Env.Scheduler != "calendar" || sp.Protocol.Name != w.protocol {
			t.Errorf("%s: decoded seed %d scheduler %q protocol %q", w.name, sp.Env.Seed, sp.Env.Scheduler, sp.Protocol.Name)
		}
		plain, err := spec.DecodeBytes(w.specBytes(1, ""))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		hashA, _ := sp.Hash()
		hashB, _ := plain.Hash()
		if hashA != hashB {
			t.Errorf("%s: seed or scheduler changed the scenario hash", w.name)
		}
	}
}

func TestCorpusLoads(t *testing.T) {
	corpus, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 5 {
		t.Fatalf("corpus has %d specs", len(corpus))
	}
	for i := 1; i < len(corpus); i++ {
		if corpus[i-1].name >= corpus[i].name {
			t.Errorf("corpus not in name order: %s before %s", corpus[i-1].name, corpus[i].name)
		}
	}
}

func TestSameResult(t *testing.T) {
	a := []byte(`{"report":{"Events":3,"Extra":{"B":1,"A":2}},"metrics":{"x":1}}`)
	b := []byte("{\n \"metrics\": {\"x\": 1}, \"report\": {\"Extra\": {\"A\": 2, \"B\": 1}, \"Events\": 3}}")
	if !sameResult(a, b) {
		t.Error("key order and whitespace made equal results differ")
	}
	if sameResult(a, []byte(`{"report":{"Events":4,"Extra":{"B":1,"A":2}},"metrics":{"x":1}}`)) {
		t.Error("different results compared equal")
	}
}
