package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"distmwis/internal/chaos"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/server"
)

// This file is the benchmark's input generator. Every request body and edit
// list is a pure function of (workload, seed, position in the sequence), so
// the same seed replays byte-identical traffic and a different seed draws a
// different sequence. Only ref-mutate's initial handles are fixed. The generator never reads a response: what the
// program answers cannot change what it is asked next.

// Request-mix constants. They are part of the benchmark definition; a
// change to any of them is a change to the benchmark, not to the program.
const (
	coldMinN    = 2000 // cold-inline graph sizes
	coldMaxN    = 3000
	clusterMinN = 1000 // cluster-fanout graph sizes: far above MinFanoutNodes
	clusterMaxN = 2000

	refHandles    = 16   // ref-mutate: graph handles PUT in set-up, eight per client
	refN          = 2000 // ref-mutate: nodes per handle
	refAvgDegree  = 6    // ref-mutate: sparse gnp, a giant component and a few small ones
	refWriteEvery = 5    // ref-mutate: every fifth request is a PATCH
	refPatchOps   = 4    // ref-mutate: operations per PATCH, cmd/loadgen's -mutate-ops default

	solveEps = 0.5 // the server default, stated explicitly
)

// inlineAlgs is the algorithm mix of the inline workloads: the paper's
// Theorem 2 pipeline, the good-nodes building block, and the planner.
var inlineAlgs = []string{"theorem2", "goodnodes", "auto"}

// refReadAlg is the algorithm of a client's k-th ref-mutate op when it is
// a read: theorem2, with every thirteenth op planned (auto). Reads use seed 1 throughout, so repeat
// reads of one graph version share a cache line: after each PATCH the
// first read of a handle re-solves (the components the PATCH changed) and
// the reads after it hit.
func refReadAlg(k int) string {
	if k%13 == 3 {
		return "auto"
	}
	return "theorem2"
}

// mix derives a generator seed from the workload seed and a stream tag.
func mix(seed uint64, stream string, i int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	x := seed*0x9e3779b97f4a7c15 ^ h ^ uint64(i)*0xbf58476d1ce4e5b9
	// splitmix64 finaliser
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newRand(seed uint64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewPCG(mix(seed, stream, i), mix(seed, stream+"/2", i)))
}

// graphJSON encodes g in the wire format the server decodes.
func graphJSON(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		panic(err) // WriteJSON of a built graph cannot fail
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// inlineInput is one request of cold-inline or cluster-fanout: a fresh
// graph and the solve request that carries it.
type inlineInput struct {
	g   *graph.Graph
	req server.SolveRequest
}

// inlineStream is the request sequence of an inline workload.
type inlineStream struct {
	name       string
	minN, maxN int
}

var (
	coldStream    = inlineStream{"cold", coldMinN, coldMaxN}
	clusterStream = inlineStream{"cluster", clusterMinN, clusterMaxN}
)

// request draws request i of the stream. The request mix is a fixed cycle,
// the same for every seed, so that seeds differ in their graphs rather than
// in how many heavy requests they happen to draw: the algorithm cycles
// through theorem2, goodnodes and auto. The seed draws the graph (see
// graph) and the solve seed.
func (s inlineStream) request(seed uint64, i int) inlineInput {
	r := newRand(seed, s.name, i)
	g := s.graph(seed, i)
	return inlineInput{g: g, req: server.SolveRequest{
		Graph: json.RawMessage(graphJSON(g)),
		Alg:   inlineAlgs[i%len(inlineAlgs)],
		Eps:   solveEps,
		Seed:  1 + uint64(r.IntN(4)),
		// Every graph is distinct, so the result cache could only miss. Left
		// on, it would grow through the whole window (about 4 KiB an answer
		// against a 64 MiB budget), and the growing live heap would cut the
		// garbage collector's cost per request second by second: 21 → 16 ms
		// of CPU per request over one 40 s run. no_cache keeps the window in
		// one steady state; decode, hash, plan and the engine still run.
		NoCache: true,
	}}
}

// graph draws the graph of request i. The graph kind alternates every
// three requests between G(n,p) (average degree 2–6) and gen.PowerLaw
// (γ=2.5, Δ≤40); n and the G(n,p) degree follow a low-discrepancy
// sequence over their ranges. The seed draws the graph itself and its
// poly2 weights in [1, n²]. Graph seeds are unique per request, so no two
// requests share content.
func (s inlineStream) graph(seed uint64, i int) *graph.Graph {
	n := s.minN + int(lowDiscrepancy(i, 0)*float64(s.maxN-s.minN+1))
	gseed := mix(seed, s.name+"/graph", i)
	var g *graph.Graph
	if (i/len(inlineAlgs))%2 == 0 {
		deg := 2 + 4*lowDiscrepancy(i, 1)
		g = gen.GNP(n, deg/float64(n), gseed)
	} else {
		g = gen.PowerLaw(n, 2.5, 40, gseed)
	}
	return gen.Weighted(g, gen.PolyWeights(2), gseed+1)
}

// lowDiscrepancy is the i-th point of an additive recurrence in [0, 1)
// (golden ratio for dim 0, √2 for dim 1): evenly spread over any prefix.
func lowDiscrepancy(i, dim int) float64 {
	alpha := [...]float64{0.6180339887498949, 0.41421356237309515}[dim]
	x := float64(i+1) * alpha
	return x - float64(int64(x))
}

// refHandle draws the initial graph of ref-mutate handle h: a sparse
// 2000-node G(n,p) with poly2 weights. The handles are part of the
// benchmark's definition, like a dataset, and the same for every seed: the
// seed draws the traffic on them. A graph_ref read of a handle that holds a
// small component fails at this commit (NOTES.md, Findings), and a
// four-operation PATCH almost never adds or removes one. With per-seed
// handles the number of failing handles, and so ok_frac, setup_s and the
// read mix, would jump from seed to seed.
func refHandle(h int) *graph.Graph {
	gseed := mix(0, "ref/handle", h)
	g := gen.GNP(refN, refAvgDegree/float64(refN), gseed)
	return gen.Weighted(g, gen.PolyWeights(2), gseed+1)
}

// refOp is one ref-mutate request: a graph_ref read or a PATCH of handle H.
type refOp struct {
	H     int
	Write bool
	Read  server.SolveRequest // Read.GraphRef is filled in by the benchmark
	Edit  graph.Edit
}

// refSequence generates one client's ref-mutate request sequence. Each
// client owns its handles (client c the handles h with h mod clients = c),
// so the two clients never race on a handle: a client's PATCH and its
// later reads of that handle are ordered, as for a user who edits their
// own graphs. Every op is a pure function of (seed, client, position), so
// the answers can be checked after the run from the op ids alone.
type refSequence struct {
	seed   uint64
	client int
	k      int
	owned  []int
	storm  *chaos.Injector
}

func newRefSequence(seed uint64, client int) *refSequence {
	s := &refSequence{seed: seed, client: client, storm: chaos.NewInjector(chaos.Schedule{
		Seed: mix(seed, "ref/edit", client), StormEvery: 1, StormOps: refPatchOps,
	})}
	for h := client; h < refHandles; h += clients {
		s.owned = append(s.owned, h)
	}
	return s
}

// Next returns the client's next op and its id (unique across clients).
func (s *refSequence) Next() (int, refOp) {
	k := s.k
	s.k++
	return k*clients + s.client, s.op(k)
}

// refOpAt regenerates the op with id i.
func refOpAt(seed uint64, i int) refOp {
	return newRefSequence(seed, i%clients).op(i / clients)
}

// op is the client's k-th op. The schedule is a fixed cycle: every fifth
// op is a PATCH, and ops go round the client's handles in turn. Eight
// handles and a period of five are coprime, so each handle sees a PATCH
// every forty ops with four reads of it in between. A PATCH is a
// chaos.Injector storm batch of refPatchOps operations turned into an
// edit, exactly what cmd/loadgen -mutate sends: each operation adds a
// random edge, removes a random node pair (a no-op unless it is an edge)
// or sets a random node's weight in [1, 1000]. The seed draws the batches.
func (s *refSequence) op(k int) refOp {
	op := refOp{H: s.owned[k%len(s.owned)]}
	if k%refWriteEvery != refWriteEvery-1 {
		op.Read = server.SolveRequest{Alg: refReadAlg(k), Eps: solveEps, Seed: 1}
		return op
	}
	op.Write = true
	for _, m := range s.storm.Storm(int64(k/refWriteEvery+1), refN) {
		switch m.Kind {
		case "add":
			op.Edit.AddEdges = append(op.Edit.AddEdges, [2]int32{m.U, m.V})
		case "remove":
			op.Edit.RemoveEdges = append(op.Edit.RemoveEdges, [2]int32{m.U, m.V})
		case "weight":
			op.Edit.Weights = append(op.Edit.Weights, graph.WeightUpdate{V: m.U, W: m.W})
		}
	}
	return op
}

// encodeRefOp renders an op's request body exactly as the client sends it
// (used by the reproducibility test and the traced run's decode replay).
func encodeRefOp(op refOp, ref string) []byte {
	var b []byte
	var err error
	if op.Write {
		b, err = json.Marshal(op.Edit)
	} else {
		req := op.Read
		req.GraphRef = ref
		b, err = json.Marshal(req)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode op: %v", err))
	}
	return b
}
