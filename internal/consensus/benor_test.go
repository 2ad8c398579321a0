package consensus

import (
	"strings"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/rng"
	"abenet/internal/topology"
)

// TestConsensusRejectsBadConfigs pins the constructor errors.
func TestConsensusRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph *topology.Graph
		cfg   Config
		want  string
	}{
		{"nil graph", nil, Config{}, "needs a graph"},
		{"ring topology", topology.Ring(8), Config{}, "complete topology"},
		{"f too large", topology.Complete(8), Config{F: 3}, "3f < n"},
		{"negative f", topology.Complete(8), Config{F: -1}, "3f < n"},
		{"negative rounds", topology.Complete(4), Config{MaxRounds: -1}, "must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg, tc.graph, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCorruptibleMsg pins the forgery surface: a corrupted message keeps
// phase and round (so it still parses) and claims a bit value.
func TestCorruptibleMsg(t *testing.T) {
	m := Msg{Phase: 2, Round: 7, Value: Unknown}
	var c any = m
	if _, ok := c.(byzantine.Corruptible); !ok {
		t.Fatal("Msg must implement byzantine.Corruptible")
	}
	forged := m.Corrupt(rng.New(42)).(Msg)
	if forged.Phase != 2 || forged.Round != 7 {
		t.Fatalf("forgery changed the envelope: %+v", forged)
	}
	if forged.Value != 0 && forged.Value != 1 {
		t.Fatalf("forged value %d, want a bit", forged.Value)
	}
	if m.Value != Unknown {
		t.Fatal("Corrupt mutated the original message")
	}
}
