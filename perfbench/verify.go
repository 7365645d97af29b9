package main

import (
	"fmt"

	"distmwis/internal/graph"
	"distmwis/internal/server"
)

// This file checks answers. Every successful answer must name the graph it
// solved, list distinct in-range members that form an independent set, and
// weigh exactly what it claims. The checks run after the timed window, on
// the answers it logged (answers.go).

// checkAnswer verifies one answer against the benchmark's own copy of the
// graph.
func checkAnswer(g *graph.Graph, set []int32, size int, weight int64) error {
	n := g.N()
	in := make([]bool, n)
	for _, v := range set {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("member %d out of range [0,%d)", v, n)
		}
		if in[v] {
			return fmt.Errorf("member %d listed twice", v)
		}
		in[v] = true
	}
	if len(set) != size {
		return fmt.Errorf("size %d but %d members", size, len(set))
	}
	if !g.IsIndependentSet(in) {
		return fmt.Errorf("set is not independent")
	}
	if w := g.SetWeight(in); w != weight {
		return fmt.Errorf("claimed weight %d, members weigh %d", weight, w)
	}
	return nil
}

// greedyWeight is the weight_ratio denominator: the server's own degraded
// greedy tier, run by the benchmark on its copy of the graph.
func greedyWeight(g *graph.Graph) int64 {
	_, w := server.GreedyDegraded(g)
	return w
}

// version is one state of a ref-mutate handle in the benchmark's shadow copy.
type version struct {
	g          *graph.Graph
	hash       string
	handle     int
	greedy     int64 // greedyWeight(g), once haveGreedy
	haveGreedy bool
}

func (v *version) greedyWeight() int64 {
	if !v.haveGreedy {
		v.greedy, v.haveGreedy = greedyWeight(v.g), true
	}
	return v.greedy
}

// shadow mirrors the ref-mutate handles. It is fed the run's answers in
// the order they completed. Each acknowledged PATCH advances it with
// graph.ApplyEdit along the response's prev_hash → hash, and the result
// must hash to what the server acknowledged. Each read is checked against
// the version its graph_hash names. A client owns its handles, so a
// handle's PATCHes and reads complete in the order the client sent them:
// a PATCH whose base, or a read whose version, the chain has not reached
// is an error.
type shadow struct {
	versions map[string]*version
	check    func(v *version, a answer)
	fail     func(msg string)

	// keep bounds the versions held per handle (0 keeps all).
	keep    int
	history [][]string // per handle, oldest first
}

func newShadow(initial []*graph.Graph, keep int, check func(*version, answer), fail func(string)) *shadow {
	s := &shadow{versions: make(map[string]*version), check: check, fail: fail, keep: keep,
		history: make([][]string, len(initial))}
	for i, g := range initial {
		s.add(&version{g: g, hash: g.HashString(), handle: i})
	}
	return s
}

// add stores a version, evicting the handle's oldest beyond keep.
func (s *shadow) add(v *version) {
	s.versions[v.hash] = v
	hist := append(s.history[v.handle], v.hash)
	if s.keep > 0 && len(hist) > s.keep {
		delete(s.versions, hist[0])
		hist = hist[1:]
	}
	s.history[v.handle] = hist
}

// lookup returns the version with the given hash, if the chain reached it.
func (s *shadow) lookup(hash string) (*version, bool) {
	v, ok := s.versions[hash]
	return v, ok
}

// patch applies an acknowledged PATCH.
func (s *shadow) patch(prev, next string, edit graph.Edit) {
	base, ok := s.versions[prev]
	if !ok {
		s.fail(fmt.Sprintf("PATCH %s → %s: base version unknown", short(prev), short(next)))
		return
	}
	if _, seen := s.versions[next]; seen {
		return
	}
	ng, _, err := base.g.ApplyEdit(edit)
	if err != nil {
		s.fail(fmt.Sprintf("PATCH %s: shadow apply: %v", short(prev), err))
		return
	}
	if h := ng.HashString(); h != next {
		s.fail(fmt.Sprintf("PATCH %s: server acknowledged %s, shadow computes %s", short(prev), short(next), short(h)))
		return
	}
	s.add(&version{g: ng, hash: next, handle: base.handle})
}

// read checks a successful graph_ref answer.
func (s *shadow) read(a answer) {
	v, ok := s.versions[a.hash]
	if !ok {
		s.fail(fmt.Sprintf("read answer names unknown version %s", short(a.hash)))
		return
	}
	s.check(v, a)
}

func short(h string) string {
	if len(h) > 16 {
		return h[:16]
	}
	return h
}
