package maxis

import (
	"fmt"
	"strings"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
)

// twoIslands builds a graph of two path components: 0..k-1 and k..n-1.
func twoIslands(k, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < k-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := k; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*5)%11))
	}
	return b.MustBuild()
}

// mapCache is a ComponentCache over a map keyed by (hash, nUpper).
func mapCache(m map[string][]int32) ComponentCache {
	key := func(h string, n int) string { return fmt.Sprintf("%s|%d", h, n) }
	return ComponentCache{
		Lookup: func(h string, n int) ([]int32, bool) { s, ok := m[key(h, n)]; return s, ok },
		Store:  func(h string, n int, set []int32, _ int64) { m[key(h, n)] = set },
	}
}

func incCfg() Config {
	return Config{Seed: 7, MIS: mis.Luby{}}
}

// A warm cache must answer every component without re-solving, and the
// cached answer must be bit-identical to the fresh one.
func TestSolveByComponentCacheHitBitIdentical(t *testing.T) {
	g := twoIslands(6, 14)
	cache := map[string][]int32{}
	cc := mapCache(cache)
	fresh, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 2 || st.Solved != 2 || st.Reused != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	warm, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Solved != 0 || st.Reused != 2 {
		t.Fatalf("warm stats = %+v", st)
	}
	if warm.Weight != fresh.Weight || !graph.SameSet(warm.Set, fresh.Set) {
		t.Fatal("cached answer differs from fresh solve")
	}
	if !g.IsIndependentSet(fresh.Set) {
		t.Fatal("component-wise union is not independent")
	}
}

// Mutating one component must leave the other's cache entry usable: after
// an edit confined to the second island, exactly one component re-solves.
func TestSolveByComponentPartialReuseAfterEdit(t *testing.T) {
	g := twoIslands(6, 14)
	cache := map[string][]int32{}
	cc := mapCache(cache)
	if _, _, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc); err != nil {
		t.Fatal(err)
	}
	ng, _, err := g.ApplyEdit(graph.Edit{AddEdges: [][2]int32{{7, 12}}})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := SolveByComponent("goodnodes", ng, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 2 || st.Reused != 1 || st.Solved != 1 {
		t.Fatalf("after a one-island edit stats = %+v, want 1 reused / 1 solved", st)
	}
	if !ng.IsIndependentSet(res.Set) {
		t.Fatal("post-edit union is not independent")
	}
}

// The empty graph has zero components and a zero answer.
func TestSolveByComponentEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), ComponentCache{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 0 || res.Weight != 0 || len(res.Set) != 0 {
		t.Fatalf("empty graph: stats %+v weight %d", st, res.Weight)
	}
}

// A cache returning garbage indices must surface an error, not corrupt the
// answer silently.
func TestSolveByComponentBadCacheEntry(t *testing.T) {
	g := twoIslands(4, 8)
	cc := ComponentCache{
		Lookup: func(string, int) ([]int32, bool) { return []int32{99}, true },
	}
	if _, _, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc); err == nil {
		t.Fatal("out-of-range cached member must error")
	}
}

// poly2WithIsolatedEdge is a 2000-node G(n,p) with poly2 weights (up to
// n² ≈ 22 bits) whose last two nodes form an isolated edge.
func poly2WithIsolatedEdge() *graph.Graph {
	const n = 2000
	base := gen.Weighted(gen.GNP(n, 0.003, 11), gen.PolyWeights(2), 5)
	b := graph.NewBuilder(n)
	for v := 0; v < n-2; v++ {
		for _, u := range base.Neighbors(v) {
			if int(u) > v && int(u) < n-2 {
				b.AddEdge(v, int(u))
			}
		}
		b.SetWeight(v, base.Weight(v))
	}
	b.AddEdge(n-2, n-1)
	b.SetWeight(n-2, n*n)
	b.SetWeight(n-1, n*n-1)
	return b.MustBuild()
}

// A two-node component of a large graph carries the large graph's
// weights. Solved with its own n as NUpper its bandwidth would be 8 bits,
// too narrow for a 22-bit weight; the component solve must use the parent
// graph's NUpper, and a cached answer must be keyed by it.
func TestSolveByComponentSmallComponentKeepsParentBandwidth(t *testing.T) {
	g := poly2WithIsolatedEdge()
	cache := map[string][]int32{}
	res, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), mapCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsIndependentSet(res.Set) {
		t.Fatal("component-wise answer is not independent")
	}
	if res.Set[g.N()-2] == res.Set[g.N()-1] {
		t.Error("the isolated edge did not contribute exactly one endpoint")
	}
	for key := range cache {
		if !strings.HasSuffix(key, fmt.Sprintf("|%d", g.N())) {
			t.Fatalf("component cached under %q, not under the parent NUpper %d", key, g.N())
		}
	}
	if st.Solved != st.Components {
		t.Fatalf("stats = %+v", st)
	}
}
