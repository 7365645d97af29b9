package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/maxis"
	"distmwis/internal/partition"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
	"distmwis/internal/reliable"
	"distmwis/internal/server"
	"distmwis/internal/trace"
)

// This file is the traced run's second half. After the timed window the
// benchmark replays the window's requests, one at a time, through the same
// public functions the server calls on them — graph decode and build,
// canonical hashing, the planner, maxis.Solve (with the benchmark's own
// trace.Tracer), component decomposition, graph.ApplyEdit, partition.Split,
// a reliable.WAL with the server's group-commit settings, response
// encoding — and times each call. The replay adds no code to the program:
// the spans are the benchmark's calls, and counters come from /metrics.

// replayBudget bounds the replay's wall time; maxReplayed bounds how many
// requests the inline workloads replay (an even sample of the traced ones).
const (
	replayBudget = 8 * time.Second
	maxReplayed  = 150
)

// phases are the fixed buckets maxis.phase_ms reports, in output order.
// Luby's three stages cover every MIS run (good-nodes MIS, the local-ratio
// rounds); detect and sparsify are the good-nodes and sparsifier
// pre-phases; host is solve time outside any CONGEST round.
var phases = []string{"mis_mark", "mis_join", "mis_retire", "detect", "sparsify", "other", "host"}

func phaseBucket(label, phase string) string {
	switch phase {
	case "mark", "join", "retire":
		return "mis_" + phase
	}
	switch label[strings.LastIndexByte(label, '/')+1:] {
	case "detect":
		return "detect"
	case "sample":
		return "sparsify"
	}
	return "other"
}

// phaseTracer timestamps every round the engine reports and charges the
// interval since the previous round (or the run's start) to the round's
// phase: per-phase self time without touching program code.
type phaseTracer struct {
	last     time.Time
	self     map[string]time.Duration
	inRounds time.Duration
	rounds   int
}

func (p *phaseTracer) BeginRun(trace.RunInfo) int { p.last = time.Now(); return 0 }

func (p *phaseTracer) OnRound(r trace.Round) {
	now := time.Now()
	d := now.Sub(p.last)
	p.last = now
	p.self[phaseBucket(r.Label, r.Phase)] += d
	p.inRounds += d
	p.rounds++
}

func (p *phaseTracer) EndRun(trace.Summary) {}

// layerAcc sums one layer's replayed call time over the requests that
// exercised it.
type layerAcc struct {
	total map[string]time.Duration
	reqs  map[string]int
}

// reqTimes is one replayed request's time per layer.
type reqTimes map[string]time.Duration

func (a *layerAcc) add(rt reqTimes) {
	for layer, d := range rt {
		a.total[layer] += d
		a.reqs[layer]++
	}
}

// ms is the mean per exercising request, in milliseconds.
func (a *layerAcc) ms(layer string) float64 {
	return per(float64(a.total[layer].Nanoseconds())/1e6, float64(a.reqs[layer]))
}

// replayer holds the replay's instruments.
type replayer struct {
	mis    protocol.MIS
	tracer *phaseTracer
	acc    layerAcc
	solves int // requests that ran at least one solve
	allocB uint64
	allocs uint64
	walN   int
	recon  []reconRow
	wal    *reliable.WAL
	memo   map[string]bool // ref-mutate: components solved so far, per config
}

type reconRow struct {
	e2e, handler, layers, clientHop time.Duration
}

func newReplayer() (*replayer, error) {
	mis, err := protocol.MISByName("luby")
	if err != nil {
		return nil, err
	}
	return &replayer{
		mis:    mis,
		tracer: &phaseTracer{self: make(map[string]time.Duration)},
		acc:    layerAcc{total: make(map[string]time.Duration), reqs: make(map[string]int)},
		memo:   make(map[string]bool),
	}, nil
}

func timed(rt reqTimes, layer string, f func()) {
	start := time.Now()
	f()
	rt[layer] += time.Since(start)
}

// solve replays maxis.Solve plus the guarantee rendering the server does
// after it, recording engine allocations and per-round phase times.
func (r *replayer) solve(rt reqTimes, alg string, g *graph.Graph, req *server.SolveRequest) (*maxis.Result, error) {
	cfg := maxis.Config{Seed: req.Seed, MIS: r.mis, Workers: 1, Tracer: r.tracer, TraceLabel: alg}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *maxis.Result
	var err error
	start := time.Now()
	roundsBefore := r.tracer.inRounds
	timed(rt, "maxis.solve", func() {
		res, err = maxis.Solve(alg, g, req.Eps, req.Alpha, cfg)
		if err == nil {
			_ = maxis.GuaranteeString(alg, g, req.Eps, req.Alpha, res)
		}
	})
	r.tracer.self["host"] += time.Since(start) - (r.tracer.inRounds - roundsBefore)
	runtime.ReadMemStats(&after)
	r.allocB += after.TotalAlloc - before.TotalAlloc
	r.allocs += after.Mallocs - before.Mallocs
	return res, err
}

// plan replays the planner for alg=auto requests.
func (r *replayer) plan(rt reqTimes, g *graph.Graph, req *server.SolveRequest) string {
	if req.Alg != plan.Auto {
		return req.Alg
	}
	alg := req.Alg
	timed(rt, "plan.choose", func() {
		d, err := plan.For(g, protocol.Params{Eps: req.Eps, Alpha: req.Alpha},
			plan.ForDeadline(req.DeadlineMS, plan.DefaultOpsPerMS), r.mis)
		if err == nil {
			alg = d.Alg
		}
	})
	return alg
}

// decodeInline replays handleSolve's decode: JSON, Normalize, BuildGraph.
func decodeInline(rt reqTimes, body []byte) (*server.SolveRequest, *graph.Graph, error) {
	var req server.SolveRequest
	var g *graph.Graph
	var err error
	timed(rt, "graph.decode", func() {
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		if err = req.Normalize(); err != nil {
			return
		}
		g, err = req.BuildGraph()
	})
	return &req, g, err
}

// cacheKeyHash replays prepare()'s hashing: the canonical form keyed with
// the config fingerprint, plus the content hash.
func cacheKeyHash(rt reqTimes, g *graph.Graph, fp string, content bool) {
	timed(rt, "graph.hash", func() {
		h := sha256.New()
		h.Write(g.Canonical())
		h.Write([]byte{0})
		h.Write([]byte(fp))
		h.Sum(nil)
		if content {
			g.HashString()
		}
	})
}

// components replays the decomposition the server does per graph_ref miss
// (maxis.SolveByComponent) and per PATCH (componentHashes): Components,
// one Induce per component and its content hash.
func components(rt reqTimes, g *graph.Graph) []*graph.Subgraph {
	var subs []*graph.Subgraph
	timed(rt, "graph.components", func() {
		comp, count := g.Components()
		keep := make([]bool, g.N())
		for c := 0; c < count; c++ {
			for v := range keep {
				keep[v] = comp[v] == int32(c)
			}
			sub := g.Induce(keep)
			sub.G.HashString()
			subs = append(subs, sub)
		}
	})
	return subs
}

func encode(rt reqTimes, v any) {
	timed(rt, "server.encode", func() { _, _ = json.Marshal(v) })
}

func sum(rt reqTimes) time.Duration {
	var s time.Duration
	for _, d := range rt {
		s += d
	}
	return s
}

// replayCold replays one cold-inline request.
func (r *replayer) replayCold(b *bench, e opEntry) reqTimes {
	rt := reqTimes{}
	in := coldStream.request(b.seed, e.i)
	body, _ := json.Marshal(in.req)
	req, g, err := decodeInline(rt, body)
	if err != nil {
		return rt
	}
	alg := r.plan(rt, g, req)
	req.Alg = alg
	cacheKeyHash(rt, g, req.Fingerprint(), true)
	_, _ = r.solve(rt, alg, g, req)
	r.solves++
	encode(rt, e.solve)
	return rt
}

// replayRef replays one ref-mutate request against the shadow version it
// named.
func (r *replayer) replayRef(w *refMutate, e opEntry) (reqTimes, bool) {
	rt := reqTimes{}
	if e.kind == "write" {
		prev, ok := w.sh.lookup(e.patch.PrevHash)
		if !ok || !e.ok {
			return rt, false
		}
		body := encodeRefOp(e.op, "")
		var edit struct {
			graph.Edit
			PrevHash string `json:"prev_hash,omitempty"`
		}
		timed(rt, "graph.decode", func() { _ = json.Unmarshal(body, &edit) })
		var ng *graph.Graph
		timed(rt, "graph.apply", func() { ng, _, _ = prev.g.ApplyEdit(edit.Edit) })
		if ng == nil {
			return rt, false
		}
		var next string
		timed(rt, "graph.hash", func() { next = ng.HashString() })
		components(rt, ng)
		rec, _ := json.Marshal(struct {
			Kind string      `json:"kind"`
			Prev string      `json:"prev"`
			Next string      `json:"next"`
			Edit *graph.Edit `json:"edit"`
		}{"patch", prev.hash, next, &edit.Edit})
		var werr error
		timed(rt, "reliable.wal_append", func() {
			werr = r.wal.Apply(fmt.Sprintf("g-%d", e.op.H+1), json.RawMessage(rec))
		})
		if werr == nil {
			r.walN++
		}
		encode(rt, e.patch)
		return rt, true
	}
	v, ok := w.sh.lookup(e.solve.GraphHash)
	if !ok {
		return rt, false
	}
	body := encodeRefOp(e.op, e.ref)
	var req server.SolveRequest
	timed(rt, "graph.decode", func() {
		_ = json.Unmarshal(body, &req)
		_ = req.Normalize()
	})
	req.Alg = r.plan(rt, v.g, &req)
	fp := "inc|" + req.Fingerprint()
	cacheKeyHash(rt, v.g, fp, false)
	if !e.solve.Cached {
		solved := false
		for _, sub := range components(rt, v.g) {
			key := fp + "|" + sub.G.HashString()
			if r.memo[key] {
				continue
			}
			solved = true
			if _, err := r.solve(rt, req.Alg, sub.G, &req); err != nil {
				break // the server stops at the first failing component too
			}
			r.memo[key] = true
		}
		if solved {
			r.solves++
		}
	}
	encode(rt, e.solve)
	return rt, true
}

// replayCluster replays one cluster-fanout request: the front tier's
// decode, hash and split, then every part's backend-side decode, plan,
// hash, solve and encode. It returns the total times and the blocking
// path (front calls plus the slowest part's calls).
func (r *replayer) replayCluster(b *bench, e opEntry) (total reqTimes, path time.Duration) {
	total = reqTimes{}
	in := clusterStream.request(b.seed, e.i)
	body, _ := json.Marshal(in.req)
	req, g, err := decodeInline(total, body)
	if err != nil {
		return total, sum(total)
	}
	timed(total, "graph.hash", func() { g.HashString() })
	var part *partition.Partition
	timed(total, "partition.split", func() {
		part, err = partition.Split(g, partition.Options{Parts: clusterBackends})
	})
	if err != nil {
		return total, sum(total)
	}
	front := sum(total)
	var slowest time.Duration
	for _, sub := range part.Parts {
		rt := reqTimes{}
		timed(rt, "graph.hash", func() { sub.G.HashString() })
		var doc bytes.Buffer
		_ = sub.G.WriteJSON(&doc)
		pbody, _ := json.Marshal(server.SolveRequest{
			Graph: json.RawMessage(doc.Bytes()), Alg: req.Alg, Eps: req.Eps,
			Alpha: req.Alpha, Seed: req.Seed, MIS: req.MIS, Priority: req.Priority,
		})
		preq, pg, perr := decodeInline(rt, pbody)
		if perr == nil {
			alg := r.plan(rt, pg, preq)
			preq.Alg = alg
			cacheKeyHash(rt, pg, preq.Fingerprint(), true)
			res, serr := r.solve(rt, alg, pg, preq)
			if serr == nil {
				encode(rt, server.SolveResponse{Status: "done", Set: indicesOf(res.Set), Weight: res.Weight})
			}
		}
		if d := sum(rt); d > slowest {
			slowest = d
		}
		for k, d := range rt {
			total[k] += d
		}
	}
	r.solves++
	before := sum(total)
	encode(total, e.cluster)
	return total, front + slowest + (sum(total) - before)
}

func indicesOf(set []bool) []int32 {
	var out []int32
	for v, in := range set {
		if in {
			out = append(out, int32(v))
		}
	}
	return out
}

// replay runs the replay for the workload's traced entries and records
// per-request layer times and reconciliation rows.
func (r *replayer) replay(b *bench, w workload) error {
	start := time.Now()
	entries := b.ops.entries
	switch ww := w.(type) {
	case *refMutate:
		wal, _, err := reliable.OpenWAL(filepath.Join(b.workdir, "replay.wal"))
		if err != nil {
			return err
		}
		defer wal.Close()
		wal.SetGroupCommit(2*time.Millisecond, 32) // the server's defaults
		r.wal = wal
		for _, e := range entries {
			if time.Since(start) > replayBudget {
				break
			}
			rt, ok := r.replayRef(ww, e)
			if !ok {
				continue
			}
			r.acc.add(rt)
			r.reconcile(b, e, sum(rt))
		}
	default:
		var traced []opEntry
		for _, e := range entries {
			if e.spanned {
				traced = append(traced, e)
			}
		}
		sort.Slice(traced, func(i, j int) bool { return traced[i].i < traced[j].i })
		step := max(1, len(traced)/maxReplayed)
		for k := 0; k < len(traced); k += step {
			if time.Since(start) > replayBudget {
				break
			}
			e := traced[k]
			if _, ok := w.(*coldInline); ok {
				rt := r.replayCold(b, e)
				r.acc.add(rt)
				r.reconcile(b, e, sum(rt))
				continue
			}
			rt, path := r.replayCluster(b, e)
			r.acc.add(rt)
			r.reconcile(b, e, path)
		}
	}
	return nil
}

// reconcile pairs a replayed request's layer time with what the hooks saw
// for it during the window.
func (r *replayer) reconcile(b *bench, e opEntry, layers time.Duration) {
	if !e.spanned {
		return
	}
	s, ok := b.spans.get(e.i)
	if !ok || s.handler == 0 {
		return
	}
	hop := e.lat - s.handler
	var rt, ph time.Duration
	for _, d := range s.partRT {
		rt += d
	}
	for _, d := range s.parts {
		ph += d
	}
	hop += rt - ph
	r.recon = append(r.recon, reconRow{e2e: e.lat, handler: s.handler, layers: layers, clientHop: hop})
}

// layerMetrics fills the per-layer metrics of the traced run.
func layerMetrics(b *bench, w workload, d counters, out map[string]metric) error {
	r, err := newReplayer()
	if err != nil {
		return err
	}
	if err := r.replay(b, w); err != nil {
		return err
	}
	ms := func(name string, v float64) { out[name] = metric{v, "ms"} }
	count := func(name string, v float64) { out[name] = metric{v, "count"} }

	var e2e, handler, layers, hop []float64
	for _, row := range r.recon {
		e2e = append(e2e, float64(row.e2e.Nanoseconds())/1e6)
		handler = append(handler, float64(row.handler.Nanoseconds())/1e6)
		layers = append(layers, float64(row.layers.Nanoseconds())/1e6)
		hop = append(hop, float64(row.clientHop.Nanoseconds())/1e6)
	}
	ms("server.handler_ms", mean(handler))
	ms("server.residual_ms", mean(handler)-mean(layers))
	ms("client.overhead_ms", mean(hop))
	ms("reconcile.e2e_ms", mean(e2e))
	ms("reconcile.layer_sum_ms", mean(layers))
	ms("reconcile.residual_ms", mean(e2e)-mean(layers))
	count("reconcile.requests", float64(len(r.recon)))
	ms("trace.overhead_ms", traceOverhead(b))

	ms("server.encode_ms", r.acc.ms("server.encode"))
	ms("graph.decode_ms", r.acc.ms("graph.decode"))
	ms("graph.hash_ms", r.acc.ms("graph.hash"))
	ms("graph.components_ms", r.acc.ms("graph.components"))
	ms("graph.apply_ms", r.acc.ms("graph.apply"))
	out["plan.choose_us"] = metric{1000 * r.acc.ms("plan.choose"), "us"}
	ms("maxis.solve_ms", r.acc.ms("maxis.solve"))
	for _, p := range phases {
		ms("maxis.phase_ms."+p, per(float64(r.tracer.self[p].Nanoseconds())/1e6, float64(r.solves)))
	}
	out["congest.round_us"] = metric{per(float64(r.tracer.inRounds.Nanoseconds())/1e3, float64(r.tracer.rounds)), "us"}
	out["congest.alloc_mb_per_req"] = metric{per(float64(r.allocB)/(1<<20), float64(r.solves)), "MB"}
	count("congest.allocs_per_req", per(float64(r.allocs), float64(r.solves)))
	ms("partition.split_ms", r.acc.ms("partition.split"))
	ms("reliable.wal_append_ms", r.acc.ms("reliable.wal_append"))
	syncs := 0.0
	if r.wal != nil {
		syncs = per(float64(r.wal.Syncs()), float64(r.walN))
	}
	count("reliable.syncs_per_append", syncs)
	count("trace.replayed", float64(r.acc.reqs["server.encode"]))

	// Counters scraped from /metrics over the timed window.
	ok := float64(b.rec.attempted - b.rec.failed)
	hits, misses := d["maxisd_cache_hits_total"], d["maxisd_cache_misses_total"]
	out["server.cache_hit_frac"] = metric{per(hits, hits+misses), "frac"}
	writes := d["maxisd_graph_mutations_total"]
	count("server.invalidated_per_write", per(d["maxisd_invalidated_components_total"], writes))
	count("congest.rounds_per_req", per(d["maxisd_engine_rounds_total"], ok))
	count("congest.messages_per_req", per(d["maxisd_engine_messages_total"], ok))
	count("congest.bits_per_req", per(d["maxisd_engine_bits_total"], ok))
	count("partition.cut_edges", per(d["cluster_cut_edges_total"], d["cluster_solves_partitioned_total"]))
	ms("cluster.fanout_overhead_ms", d["cluster_fanout_overhead_us"]/1000)
	solves := d["cluster_solves_total"]
	count("cluster.conflicts_per_solve", per(d["cluster_cut_conflicts_total"], solves))
	count("cluster.readmitted_per_solve", per(d["cluster_readmitted_total"], solves))
	out["cluster.floor_win_frac"] = metric{per(d["cluster_floor_wins_total"], solves), "frac"}
	count("cluster.reroutes", d["cluster_reroutes_total"])
	count("cluster.local_parts", d["cluster_local_parts_total"])
	count("repair.upgraded_per_write", per(d["maxisd_repair_upgrades_total"], writes))
	count("repair.dropped", d["maxisd_repair_dropped_total"])
	out["repair.staleness_s"] = metric{d["maxisd_answer_staleness_seconds"], "s"}
	return nil
}

// traceOverhead is the median latency of the window's spanned requests
// minus that of the interleaved unspanned ones (the workload's solve or
// read op).
func traceOverhead(b *bench) float64 {
	var on, off []float64
	for _, e := range b.ops.entries {
		if !e.ok || e.kind == "write" {
			continue
		}
		ms := float64(e.lat.Nanoseconds()) / 1e6
		if e.spanned {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on) - median(off)
}
