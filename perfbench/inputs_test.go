package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"distmwis/internal/graph"
)

func inlineBodies(t *testing.T, gen func(uint64, int) inlineInput, seed uint64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		b, err := json.Marshal(gen(seed, i).req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// refEdits is the PATCH bodies of the first n ops of each ref-mutate
// client. The reads between them are a fixed cycle over the fixed handles,
// the same for every seed.
func refEdits(seed uint64, n int) [][]byte {
	var out [][]byte
	for c := 0; c < clients; c++ {
		seq := newRefSequence(seed, c)
		for k := 0; k < n; k++ {
			if _, op := seq.Next(); op.Write {
				out = append(out, encodeRefOp(op, ""))
			}
		}
	}
	return out
}

func sameBytes(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The same seed must send byte-identical request bodies and edit lists; a
// different seed must send different ones.
func TestSeedReproducible(t *testing.T) {
	streams := map[string]func(uint64) [][]byte{
		"cold-inline":    func(s uint64) [][]byte { return inlineBodies(t, coldStream.request, s, 8) },
		"cluster-fanout": func(s uint64) [][]byte { return inlineBodies(t, clusterStream.request, s, 8) },
		"ref-mutate":     func(s uint64) [][]byte { return refEdits(s, 400) },
	}
	for name, bodies := range streams {
		a, b := bodies(7), bodies(7)
		if !sameBytes(a, b) {
			t.Errorf("%s: seed 7 twice gave different bodies", name)
		}
		c := bodies(8)
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: seeds 7 and 8 gave the same body %d", name, i)
			}
		}
	}
}

// Every inline request carries a graph no earlier request carried, so the
// result cache can never answer one.
func TestInlineGraphsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 40; i++ {
		h := coldStream.graph(3, i).HashString()
		if seen[h] {
			t.Fatalf("request %d repeats an earlier graph", i)
		}
		seen[h] = true
	}
}

// The ref-mutate mix keeps its stated shape: one request in five is a
// PATCH of cmd/loadgen's size, every edit applies cleanly to the handle it
// names, and refOpAt regenerates each op from its id.
func TestRefMix(t *testing.T) {
	var handles []*graph.Graph
	for h := 0; h < refHandles; h++ {
		handles = append(handles, refHandle(h))
	}
	seq := newRefSequence(5, 1)
	writes := 0
	const n = 2000
	for k := 0; k < n; k++ {
		i, op := seq.Next()
		if op.H%clients != 1 {
			t.Fatalf("op %d names handle %d, not one of client 1's", k, op.H)
		}
		if !bytes.Equal(encodeRefOp(op, "r"), encodeRefOp(refOpAt(5, i), "r")) {
			t.Fatalf("op %d: refOpAt(%d) differs from the sequence", k, i)
		}
		if !op.Write {
			continue
		}
		writes++
		if ops := len(op.Edit.AddEdges) + len(op.Edit.RemoveEdges) + len(op.Edit.Weights); ops != refPatchOps {
			t.Fatalf("op %d: PATCH of %d operations, want %d", k, ops, refPatchOps)
		}
		g, _, err := handles[op.H].ApplyEdit(op.Edit)
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		handles[op.H] = g
	}
	if writes != n/refWriteEvery {
		t.Fatalf("%d writes in %d ops, want one in %d", writes, n, refWriteEvery)
	}
}

// The shadow copy must follow a chain of PATCH acknowledgements, check
// reads against the version they name, and flag an answer that is not
// independent, a read of an unknown version and a wrong acknowledged hash.
func TestShadowChain(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g0 := b.MustBuild()
	e1 := graph.Edit{AddEdges: [][2]int32{{1, 2}}}
	g1, _, _ := g0.ApplyEdit(e1)
	e2 := graph.Edit{RemoveEdges: [][2]int32{{0, 1}}}
	g2, _, _ := g1.ApplyEdit(e2)

	var checked []string
	var failures []string
	sh := newShadow([]*graph.Graph{g0}, 2, func(v *version, a answer) {
		if err := checkAnswer(v.g, a.set, a.size, a.weight); err != nil {
			failures = append(failures, err.Error())
		}
		checked = append(checked, v.hash)
	}, func(msg string) { failures = append(failures, msg) })

	read := func(g *graph.Graph, set []int32) answer {
		var w int64
		for _, v := range set {
			w += g.Weight(int(v))
		}
		return answer{kind: kindRead, hash: g.HashString(), set: set, size: len(set), weight: w}
	}
	sh.patch(g0.HashString(), g1.HashString(), e1)
	sh.patch(g1.HashString(), g2.HashString(), e2)
	sh.read(read(g2, []int32{0, 1, 3}))
	if len(checked) != 1 || checked[0] != g2.HashString() || len(failures) != 0 {
		t.Fatalf("checked=%v failures=%v", checked, failures)
	}
	// {1, 2} is an edge of version 2: the check must fail.
	sh.read(read(g2, []int32{1, 2}))
	if len(failures) != 1 {
		t.Fatalf("dependent set passed: failures=%v", failures)
	}
	// keep=2 evicted version 0; a read of it names no known version.
	sh.read(read(g0, []int32{0, 2}))
	if len(failures) != 2 {
		t.Fatalf("read of an evicted version passed: failures=%v", failures)
	}
	// An acknowledgement whose hash is not what the edit produces.
	sh.patch(g2.HashString(), g0.HashString(), e1)
	if len(failures) != 3 {
		t.Fatalf("wrong acknowledged hash passed: failures=%v", failures)
	}
}

// The answer log must give back every answer as it was appended, with the
// answers after startTimed marked as the timed window's.
func TestAnswerLogRoundTrip(t *testing.T) {
	l, err := newAnswerLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	in := []answer{
		{i: 0, kind: kindRead, full: true, hash: "h0", size: 2, weight: 1 << 40, set: []int32{7, 3}},
		{i: 1 << 20, kind: kindWrite, hash: "h1", prev: "h0"},
		{i: 5, kind: kindSolve, hash: "h2", size: 0, weight: 0},
	}
	l.add(in[0])
	l.startTimed()
	l.add(in[1])
	l.add(in[2])
	var out []answer
	if err := l.each(func(a answer) { out = append(out, a) }); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read back %d answers, want %d", len(out), len(in))
	}
	for k, a := range out {
		want := in[k]
		want.timed = k >= 1
		if a.i != want.i || a.kind != want.kind || a.timed != want.timed || a.full != want.full ||
			a.hash != want.hash || a.prev != want.prev || a.size != want.size || a.weight != want.weight ||
			len(a.set) != len(want.set) {
			t.Fatalf("answer %d: got %+v, want %+v", k, a, want)
		}
		for j := range a.set {
			if a.set[j] != want.set[j] {
				t.Fatalf("answer %d: set %v, want %v", k, a.set, want.set)
			}
		}
	}
}
