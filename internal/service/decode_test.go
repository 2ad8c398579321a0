package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"abenet/internal/runner"
)

// TestKnownDocumentIsShared: many goroutines submit one document with
// distinct seeds, for every registered protocol, plain, observed and traced.
// All but the first submission of a document run a copy of one kept spec, and
// under -race nothing may write to what the copies share; every result is
// byte-equal to a fresh decode and run of the same (document, seed).
func TestKnownDocumentIsShared(t *testing.T) {
	const seeds = 6
	modes := []struct{ name, env string }{
		{"plain", ``},
		{"observed", `,"observe":{"every_events":7}`},
		{"traced", `,"trace":{"max_events":500}`},
	}
	svc := New(Options{Workers: 4, QueueDepth: 256})
	defer svc.Close()

	submissions := 0
	for _, name := range runner.Protocols() {
		for _, mode := range modes {
			doc := []byte(`{"version":1,"env":{"n":8` + mode.env + `},"protocol":{"name":"` + name + `"}}`)
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				var wg sync.WaitGroup
				results := make([][]byte, seeds)
				for g := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						seed := uint64(g + 1)
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						defer cancel()
						v, err := svc.SubmitAndWait(ctx, doc, &seed)
						if err != nil || v.Status != StatusDone {
							t.Errorf("seed %d: %s (%s), %v", seed, v.Status, v.Error, err)
							return
						}
						results[g], err = json.Marshal(v.Result)
						if err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				for g, got := range results {
					seed := uint64(g + 1)
					if want := directResult(t, doc, &seed); !bytes.Equal(got, want) {
						t.Fatalf("seed %d: served result is not a fresh decode and run:\ngot:  %s\nwant: %s", seed, got, want)
					}
				}
			})
			submissions += seeds
		}
	}
	st := svc.Stats()
	if st.SpecDecodes+st.SpecMemoHits != int64(submissions) || st.SpecMemoHits == 0 {
		t.Fatalf("%d submissions: %d decodes and %d memo hits", submissions, st.SpecDecodes, st.SpecMemoHits)
	}
}

// TestInvalidDocumentIsDecodedEveryTime: a document that does not decode is
// never kept. Sent twice, it is decoded twice and refused twice with the same
// typed error.
func TestInvalidDocumentIsDecodedEveryTime(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	doc := []byte(`{"version":1,"env":{"n":4,"horizon":10,"faults":{"loss":0.1}},"protocol":{"name":"peterson"}}`)
	var msgs []string
	for range 2 {
		_, err := svc.Submit(doc, nil)
		if !errors.Is(err, runner.ErrFaultsUnsupported) {
			t.Fatalf("submit = %v, want ErrFaultsUnsupported", err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("the second refusal differs from the first:\n%s\n%s", msgs[0], msgs[1])
	}
	if st := svc.Stats(); st.SpecDecodes != 2 || st.SpecMemoHits != 0 || st.Submissions != 0 {
		t.Fatalf("decodes %d, memo hits %d, submissions %d; want 2, 0, 0", st.SpecDecodes, st.SpecMemoHits, st.Submissions)
	}
}

// TestLongDocumentIsDecodedEveryTime: a document up to maxKnownDocBytes is
// kept; one byte longer, it is decoded on every submission — and still served
// from the result cache, whose key is the scenario, not the bytes.
func TestLongDocumentIsDecodedEveryTime(t *testing.T) {
	canonical := specJSON(t, loadFixture(t, "election_ring.json"))
	for _, c := range []struct {
		size            int
		decodes, memoed int64
	}{
		{maxKnownDocBytes, 1, 1},
		{maxKnownDocBytes + 1, 2, 0},
	} {
		t.Run(fmt.Sprint(c.size), func(t *testing.T) {
			svc := New(Options{Workers: 1})
			defer svc.Close()
			// JSON allows trailing whitespace, so padding keeps the scenario.
			doc := append(bytes.Clone(canonical), bytes.Repeat([]byte(" "), c.size-len(canonical))...)
			first, err := svc.Submit(doc, nil)
			if err != nil {
				t.Fatal(err)
			}
			await(t, svc, first.ID)
			again, err := svc.Submit(doc, nil)
			if err != nil || again.CacheHits != 1 {
				t.Fatalf("resubmission: cache hits %d, %v; want a result-cache hit", again.CacheHits, err)
			}
			if st := svc.Stats(); st.SpecDecodes != c.decodes || st.SpecMemoHits != c.memoed {
				t.Fatalf("%d-byte document: decodes %d, memo hits %d; want %d, %d",
					len(doc), st.SpecDecodes, st.SpecMemoHits, c.decodes, c.memoed)
			}
		})
	}
}
