package mis

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph/gen"
)

// TestLubyAllocsIndependentOfRounds pins the round loop's allocation
// shape: messages live in per-lane bit slabs that are reused round after
// round, so a run allocates per node (process state, set up once) and not
// per round or per message. A 3-round prefix and the full run of Luby on a
// fixed 10k-node graph (≈180k and ≈270k messages) must allocate nearly the
// same amount; the difference is only slab growth.
func TestLubyAllocsIndependentOfRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node runs")
	}
	g := gen.GNP(10000, 6.0/10000, 1)
	for _, engine := range []congest.Engine{congest.EngineSequential, congest.EnginePool} {
		allocs := func(stop int) (float64, *congest.Result) {
			var res *congest.Result
			a := testing.AllocsPerRun(2, func() {
				var err error
				res, err = congest.Run(g, Luby{}.NewProcess, congest.WithSeed(1),
					congest.WithEngine(engine), congest.WithWorkers(2), congest.WithHardStop(stop))
				if err != nil {
					t.Fatal(err)
				}
			})
			return a, res
		}
		short, shortRes := allocs(3)
		full, fullRes := allocs(1000)
		if fullRes.Truncated || fullRes.Rounds < 5*shortRes.Rounds || fullRes.Messages <= shortRes.Messages {
			t.Fatalf("engine %d: full run (%d rounds, %d messages) is not much longer than the prefix (%d, %d)",
				engine, fullRes.Rounds, fullRes.Messages, shortRes.Rounds, shortRes.Messages)
		}
		if full-short > 64 {
			t.Errorf("engine %d: %d rounds allocate %.0f, %d rounds %.0f: %.0f more, want ≤ 64",
				engine, shortRes.Rounds, short, fullRes.Rounds, full, full-short)
		}
		if perNode := full / float64(g.N()); perNode > 3 {
			t.Errorf("engine %d: %.2f allocations per node, want ≤ 3 (%d messages)", engine, perNode, fullRes.Messages)
		}
	}
}
