package runner

import (
	"strings"
	"testing"

	"abenet/internal/topology"
)

// irsOutcome is what one itai-rodeh-sync run reports about the election.
type irsOutcome struct {
	messages                     uint64
	rounds, leaders, leaderIndex int
	elected                      bool
}

// exhausted marks a run that ran out of its round budget (1000·n by
// default): Run returns an error and no report.
var exhausted = irsOutcome{}

// irsRoundEngine holds itai-rodeh-sync outcomes for seeds 0–19, recorded on
// the lock-step round engine that ran the synchronous model before it moved
// onto the kernel under the clock synchronizer. Q is the default 1/n, or
// min(1, 2/n) where double is set; at n = 2 that is Q = 1, where both nodes
// are candidates in every phase and no run ever elects.
var irsRoundEngine = []struct {
	graph  *topology.Graph // nil: the default ring of n
	n      int
	double bool
	runs   [20]irsOutcome
}{
	{graph: nil, n: 2, double: false, runs: [20]irsOutcome{
		{4, 12, 1, 0, true}, {2, 6, 1, 1, true}, {4, 6, 1, 0, true}, {6, 12, 1, 0, true},
		{6, 24, 1, 0, true}, {4, 15, 1, 0, true}, {4, 9, 1, 0, true}, {12, 21, 1, 1, true},
		{4, 9, 1, 1, true}, {4, 9, 1, 0, true}, {2, 6, 1, 1, true}, {2, 3, 1, 0, true},
		{6, 9, 1, 0, true}, {2, 6, 1, 1, true}, {2, 3, 1, 1, true}, {2, 3, 1, 0, true},
		{4, 9, 1, 0, true}, {2, 3, 1, 1, true}, {2, 3, 1, 0, true}, {6, 15, 1, 0, true},
	}},
	{graph: nil, n: 2, double: true, runs: [20]irsOutcome{
		exhausted, exhausted, exhausted, exhausted,
		exhausted, exhausted, exhausted, exhausted,
		exhausted, exhausted, exhausted, exhausted,
		exhausted, exhausted, exhausted, exhausted,
		exhausted, exhausted, exhausted, exhausted,
	}},
	{graph: nil, n: 3, double: false, runs: [20]irsOutcome{
		{6, 20, 1, 0, true}, {3, 8, 1, 1, true}, {9, 16, 1, 2, true}, {3, 4, 1, 2, true},
		{3, 4, 1, 2, true}, {3, 8, 1, 1, true}, {6, 12, 1, 0, true}, {15, 28, 1, 1, true},
		{3, 16, 1, 2, true}, {6, 12, 1, 0, true}, {6, 12, 1, 0, true}, {6, 8, 1, 2, true},
		{3, 8, 1, 1, true}, {3, 4, 1, 2, true}, {3, 4, 1, 1, true}, {9, 16, 1, 1, true},
		{6, 8, 1, 2, true}, {3, 4, 1, 1, true}, {3, 4, 1, 2, true}, {3, 4, 1, 2, true},
	}},
	{graph: nil, n: 3, double: true, runs: [20]irsOutcome{
		{6, 12, 1, 1, true}, {12, 20, 1, 0, true}, {9, 12, 1, 1, true}, {12, 16, 1, 0, true},
		{15, 20, 1, 2, true}, {60, 84, 1, 0, true}, {12, 20, 1, 0, true}, {27, 36, 1, 1, true},
		{3, 4, 1, 1, true}, {15, 24, 1, 1, true}, {24, 36, 1, 1, true}, {9, 12, 1, 1, true},
		{12, 16, 1, 2, true}, {3, 4, 1, 2, true}, {9, 12, 1, 0, true}, {36, 48, 1, 1, true},
		{6, 8, 1, 2, true}, {3, 4, 1, 1, true}, {6, 8, 1, 2, true}, {3, 4, 1, 2, true},
	}},
	{graph: nil, n: 5, double: false, runs: [20]irsOutcome{
		{5, 12, 1, 2, true}, {5, 24, 1, 3, true}, {15, 18, 1, 3, true}, {5, 6, 1, 2, true},
		{10, 24, 1, 2, true}, {25, 78, 1, 0, true}, {10, 12, 1, 4, true}, {25, 54, 1, 1, true},
		{10, 42, 1, 0, true}, {10, 18, 1, 0, true}, {5, 12, 1, 2, true}, {10, 12, 1, 2, true},
		{5, 6, 1, 3, true}, {5, 6, 1, 2, true}, {10, 18, 1, 4, true}, {10, 18, 1, 2, true},
		{5, 6, 1, 2, true}, {15, 18, 1, 2, true}, {10, 18, 1, 1, true}, {5, 6, 1, 2, true},
	}},
	{graph: nil, n: 5, double: true, runs: [20]irsOutcome{
		{5, 6, 1, 4, true}, {10, 18, 1, 0, true}, {15, 18, 1, 3, true}, {5, 6, 1, 2, true},
		{5, 6, 1, 2, true}, {5, 12, 1, 1, true}, {10, 12, 1, 4, true}, {5, 6, 1, 0, true},
		{5, 18, 1, 2, true}, {20, 30, 1, 0, true}, {30, 42, 1, 3, true}, {40, 54, 1, 4, true},
		{20, 24, 1, 2, true}, {10, 12, 1, 1, true}, {70, 84, 1, 3, true}, {5, 6, 1, 2, true},
		{20, 24, 1, 0, true}, {20, 24, 1, 1, true}, {30, 42, 1, 0, true}, {20, 24, 1, 3, true},
	}},
	{graph: nil, n: 8, double: false, runs: [20]irsOutcome{
		{24, 54, 1, 1, true}, {8, 9, 1, 5, true}, {16, 18, 1, 6, true}, {16, 18, 1, 3, true},
		{16, 36, 1, 2, true}, {8, 36, 1, 6, true}, {40, 72, 1, 5, true}, {8, 9, 1, 5, true},
		{8, 9, 1, 7, true}, {16, 45, 1, 6, true}, {8, 18, 1, 7, true}, {16, 18, 1, 2, true},
		{8, 27, 1, 4, true}, {16, 18, 1, 1, true}, {8, 27, 1, 4, true}, {32, 45, 1, 7, true},
		{8, 9, 1, 5, true}, {24, 36, 1, 5, true}, {16, 27, 1, 1, true}, {8, 9, 1, 2, true},
	}},
	{graph: nil, n: 8, double: true, runs: [20]irsOutcome{
		{8, 9, 1, 4, true}, {8, 9, 1, 5, true}, {24, 27, 1, 3, true}, {48, 63, 1, 0, true},
		{16, 27, 1, 4, true}, {8, 9, 1, 5, true}, {16, 18, 1, 4, true}, {48, 81, 1, 1, true},
		{8, 9, 1, 7, true}, {8, 9, 1, 6, true}, {24, 36, 1, 0, true}, {16, 18, 1, 2, true},
		{8, 9, 1, 3, true}, {16, 18, 1, 1, true}, {16, 27, 1, 4, true}, {8, 9, 1, 5, true},
		{24, 27, 1, 4, true}, {64, 81, 1, 3, true}, {48, 63, 1, 0, true}, {40, 45, 1, 3, true},
	}},
	{graph: nil, n: 16, double: false, runs: [20]irsOutcome{
		{16, 17, 1, 9, true}, {16, 68, 1, 5, true}, {16, 34, 1, 6, true}, {32, 51, 1, 10, true},
		{16, 17, 1, 9, true}, {16, 17, 1, 13, true}, {16, 17, 1, 5, true}, {16, 17, 1, 8, true},
		{16, 34, 1, 12, true}, {16, 34, 1, 0, true}, {16, 34, 1, 15, true}, {16, 17, 1, 3, true},
		{16, 34, 1, 12, true}, {32, 34, 1, 13, true}, {32, 34, 1, 8, true}, {16, 17, 1, 12, true},
		{16, 17, 1, 5, true}, {32, 51, 1, 13, true}, {80, 102, 1, 4, true}, {16, 17, 1, 2, true},
	}},
	{graph: nil, n: 16, double: true, runs: [20]irsOutcome{
		{16, 17, 1, 9, true}, {32, 51, 1, 5, true}, {32, 34, 1, 6, true}, {80, 85, 1, 2, true},
		{16, 17, 1, 9, true}, {32, 34, 1, 8, true}, {160, 187, 1, 6, true}, {48, 51, 1, 9, true},
		{16, 17, 1, 7, true}, {16, 17, 1, 12, true}, {96, 136, 1, 10, true}, {80, 85, 1, 1, true},
		{16, 17, 1, 12, true}, {48, 51, 1, 14, true}, {48, 51, 1, 4, true}, {112, 119, 1, 3, true},
		{16, 17, 1, 5, true}, {48, 51, 1, 13, true}, {96, 119, 1, 0, true}, {16, 17, 1, 2, true},
	}},
	{graph: nil, n: 64, double: false, runs: [20]irsOutcome{
		{256, 455, 1, 42, true}, {64, 130, 1, 35, true}, {128, 260, 1, 37, true}, {64, 65, 1, 36, true},
		{64, 130, 1, 0, true}, {128, 195, 1, 12, true}, {128, 195, 1, 63, true}, {64, 65, 1, 26, true},
		{128, 130, 1, 36, true}, {64, 65, 1, 30, true}, {64, 130, 1, 63, true}, {128, 195, 1, 11, true},
		{128, 260, 1, 10, true}, {64, 65, 1, 2, true}, {128, 325, 1, 26, true}, {64, 130, 1, 4, true},
		{64, 65, 1, 41, true}, {64, 65, 1, 56, true}, {64, 65, 1, 12, true}, {64, 65, 1, 25, true},
	}},
	{graph: nil, n: 64, double: true, runs: [20]irsOutcome{
		{192, 195, 1, 4, true}, {64, 65, 1, 46, true}, {512, 650, 1, 43, true}, {320, 325, 1, 51, true},
		{128, 195, 1, 61, true}, {512, 650, 1, 36, true}, {128, 130, 1, 33, true}, {64, 65, 1, 26, true},
		{448, 455, 1, 26, true}, {320, 390, 1, 46, true}, {256, 325, 1, 11, true}, {448, 585, 1, 17, true},
		{192, 260, 1, 10, true}, {64, 65, 1, 2, true}, {64, 65, 1, 19, true}, {128, 130, 1, 4, true},
		{192, 195, 1, 16, true}, {128, 195, 1, 13, true}, {192, 195, 1, 10, true}, {256, 325, 1, 49, true},
	}},
	{graph: nil, n: 256, double: false, runs: [20]irsOutcome{
		{1024, 1799, 1, 112, true}, {256, 257, 1, 88, true}, {256, 257, 1, 171, true}, {1280, 2056, 1, 36, true},
		{256, 257, 1, 160, true}, {256, 257, 1, 84, true}, {512, 771, 1, 63, true}, {256, 257, 1, 26, true},
		{256, 257, 1, 201, true}, {512, 514, 1, 41, true}, {256, 514, 1, 249, true}, {256, 514, 1, 13, true},
		{256, 257, 1, 77, true}, {1280, 2313, 1, 145, true}, {256, 514, 1, 202, true}, {1024, 1542, 1, 112, true},
		{256, 257, 1, 157, true}, {256, 257, 1, 234, true}, {256, 514, 1, 81, true}, {512, 1028, 1, 116, true},
	}},
	{graph: nil, n: 256, double: true, runs: [20]irsOutcome{
		{2304, 2827, 1, 244, true}, {256, 257, 1, 88, true}, {256, 257, 1, 171, true}, {256, 514, 1, 121, true},
		{256, 257, 1, 160, true}, {768, 1028, 1, 79, true}, {1024, 1285, 1, 196, true}, {256, 257, 1, 26, true},
		{256, 257, 1, 201, true}, {1536, 2056, 1, 16, true}, {1280, 1542, 1, 4, true}, {1280, 1285, 1, 219, true},
		{256, 257, 1, 77, true}, {256, 257, 1, 2, true}, {256, 257, 1, 191, true}, {256, 257, 1, 236, true},
		{1280, 1285, 1, 57, true}, {1792, 2570, 1, 121, true}, {256, 257, 1, 12, true}, {1280, 1799, 1, 195, true},
	}},
	{graph: topology.BiRing(8), runs: [20]irsOutcome{
		{24, 54, 1, 1, true}, {8, 9, 1, 5, true}, {16, 18, 1, 6, true}, {16, 18, 1, 3, true},
		{16, 36, 1, 2, true}, {8, 36, 1, 6, true}, {40, 72, 1, 5, true}, {8, 9, 1, 5, true},
		{8, 9, 1, 7, true}, {16, 45, 1, 6, true}, {8, 18, 1, 7, true}, {16, 18, 1, 2, true},
		{8, 27, 1, 4, true}, {16, 18, 1, 1, true}, {8, 27, 1, 4, true}, {32, 45, 1, 7, true},
		{8, 9, 1, 5, true}, {24, 36, 1, 5, true}, {16, 27, 1, 1, true}, {8, 9, 1, 2, true},
	}},
	{graph: topology.Hypercube(4), runs: [20]irsOutcome{
		{16, 17, 1, 9, true}, {16, 68, 1, 5, true}, {16, 34, 1, 6, true}, {32, 51, 1, 10, true},
		{16, 17, 1, 9, true}, {16, 17, 1, 13, true}, {16, 17, 1, 5, true}, {16, 17, 1, 8, true},
		{16, 34, 1, 12, true}, {16, 34, 1, 0, true}, {16, 34, 1, 15, true}, {16, 17, 1, 3, true},
		{16, 34, 1, 12, true}, {32, 34, 1, 13, true}, {32, 34, 1, 8, true}, {16, 17, 1, 12, true},
		{16, 17, 1, 5, true}, {32, 51, 1, 13, true}, {80, 102, 1, 4, true}, {16, 17, 1, 2, true},
	}},
}

// TestItaiRodehSyncMatchesRoundEngine: the kernel under the clock
// synchronizer at period 1 with deliveries at ½ is the lock-step model —
// every recorded outcome holds, and no message arrives after its round.
func TestItaiRodehSyncMatchesRoundEngine(t *testing.T) {
	for _, c := range irsRoundEngine {
		q := 0.0
		if c.double {
			q = min(1, 2/float64(c.n))
		}
		for seed, want := range c.runs {
			rep, err := Run(Env{Graph: c.graph, N: c.n, Seed: uint64(seed)}, ItaiRodehSync{Q: q})
			if want == exhausted {
				if err == nil {
					t.Errorf("graph %v n=%d q=%g seed %d: ran to %+v, want a round-budget error", c.graph, c.n, q, seed, rep)
				}
				continue
			}
			if err != nil {
				t.Errorf("graph %v n=%d q=%g seed %d: %v", c.graph, c.n, q, seed, err)
				continue
			}
			got := irsOutcome{rep.Messages, rep.Rounds, rep.Leaders, rep.LeaderIndex, rep.Elected}
			if got != want {
				t.Errorf("graph %v n=%d q=%g seed %d: got %+v, want %+v", c.graph, c.n, q, seed, got, want)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("graph %v n=%d q=%g seed %d: violations %v", c.graph, c.n, q, seed, rep.Violations)
			}
		}
	}
	// Q = 1 on a ring of 4 never elects: the budget is an error.
	if _, err := Run(Env{N: 4, MaxRounds: 200}, ItaiRodehSync{Q: 1}); err == nil || !strings.Contains(err.Error(), "within 200 rounds") {
		t.Fatalf("n=4 Q=1 MaxRounds 200: err = %v, want a round-budget error", err)
	}
}
