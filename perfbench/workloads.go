package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"distmwis/internal/cluster"
	"distmwis/internal/graph"
	"distmwis/internal/server"
	"distmwis/internal/server/client"
)

// This file defines the three workloads: how each boots the program (the
// timed set-up), what one request is, and how its answer is checked.

// workload is one booted instance of the program plus its request source.
type workload interface {
	// setup boots the program. It is what setup_s times.
	setup() error
	// step sends one request and records its outcome and answer.
	step(worker int)
	// verify checks every logged answer, after the timed window.
	verify() error
	// stop shuts the program down and waits for it.
	stop() error
	// nodes lists every server, front tier first.
	nodes() []*node
}

// bench is the state of one run shared by its workload instances.
type bench struct {
	name      string
	seed      uint64
	traced    bool
	workdir   string
	spans     *spanLog // non-nil in the traced run
	rec       *recorder
	log       *answerLog
	ops       *opLog  // non-nil in the traced run
	boots     int     // set-ups the reported setup_s is the median of
	setupSlow float64 // host slowdown measured next to the boots
	// Untraced run: the end-to-end times and rates as measured, before
	// they are put on the reference host's speed.
	measured map[string]metric
}

// spanned reports whether request i carries a span id. The traced run
// alternates in pairs of ids (ref-mutate ids interleave the two clients),
// so tracing overhead is measured on interleaved requests of each client.
func (b *bench) spanned(i int) bool { return b.traced && (i/clients)%2 == 1 }

func (b *bench) ctx(i int) context.Context {
	if b.spanned(i) {
		return withSpan(context.Background(), i)
	}
	return context.Background()
}

// opEntry is one completed request, kept by the traced run for replay.
type opEntry struct {
	i       int
	kind    string // solve | read | write
	lat     time.Duration
	ok      bool
	spanned bool
	solve   server.SolveResponse      // solve, read
	cluster cluster.Response          // cluster-fanout
	patch   server.PatchGraphResponse // write
	op      refOp                     // read, write
	ref     string                    // read, write: the handle's graph_ref
}

type opLog struct {
	mu      sync.Mutex
	entries []opEntry
}

func (l *opLog) add(e opEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

func newWorkload(b *bench, handles []*graph.Graph) (workload, error) {
	switch b.name {
	case "cold-inline":
		return &coldInline{b: b}, nil
	case "ref-mutate":
		return &refMutate{b: b, handles: handles}, nil
	case "cluster-fanout":
		return &clusterFanout{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-inline, ref-mutate or cluster-fanout)", b.name)
}

// ---- cold-inline -------------------------------------------------------

// coldInline is one node; every request is a distinct graph sent inline.
type coldInline struct {
	b    *bench
	n    *node
	tr   *http.Transport
	cl   *client.Client
	next atomic.Int64
}

func (w *coldInline) setup() error {
	hc, tr := httpClient(clients, w.b.spans, false)
	w.tr = tr
	n, err := startNode(server.Options{}, w.b.spans, false, nil)
	if err != nil {
		return err
	}
	w.n = n
	w.cl = client.New(n.url, clientOptions(hc))
	return n.ready(hc)
}

func (w *coldInline) step(int) {
	i := int(w.next.Add(1) - 1)
	var in inlineInput
	w.b.rec.generate(func() { in = coldStream.request(w.b.seed, i) })
	start := time.Now()
	resp, err := w.cl.Solve(w.b.ctx(i), in.req)
	lat := time.Since(start)
	err = outcome(err, resp.Status, resp.Error)
	ok := err == nil
	w.b.rec.done("solve", lat, err)
	w.b.ops.add(opEntry{i: i, kind: "solve", lat: lat, ok: ok, spanned: w.b.spanned(i), solve: resp})
	if ok {
		w.b.log.add(solveAnswer(kindSolve, i, resp, !resp.Degraded))
	}
}

// solveAnswer is what the answer log keeps of a successful solve or read.
func solveAnswer(kind byte, i int, resp server.SolveResponse, full bool) answer {
	return answer{i: i, kind: kind, full: full, hash: resp.GraphHash, size: resp.Size, weight: resp.Weight, set: resp.Set}
}

// verifyInline checks an inline workload's answers against the benchmark's
// own copy of each graph it sent, regenerated from the request id.
func (b *bench) verifyInline(s inlineStream) error {
	return b.log.each(func(a answer) {
		g := s.graph(b.seed, a.i)
		if a.hash != g.HashString() {
			b.rec.wrong(fmt.Sprintf("request %d: answer names graph %s", a.i, short(a.hash)))
			return
		}
		if err := checkAnswer(g, a.set, a.size, a.weight); err != nil {
			b.rec.wrong(fmt.Sprintf("request %d: %v", a.i, err))
			return
		}
		if a.timed {
			b.rec.answer(a.weight, greedyWeight(g), a.full)
		}
	})
}

func (w *coldInline) verify() error  { return w.b.verifyInline(coldStream) }
func (w *coldInline) nodes() []*node { return []*node{w.n} }

func (w *coldInline) stop() error { return stopNode(w.tr, w.n) }

// ---- ref-mutate --------------------------------------------------------

// refMutate is one node with the graph journal on: the fixed handles PUT
// in set-up, then a seeded mix of graph_ref reads and PATCHes.
type refMutate struct {
	b       *bench
	handles []*graph.Graph
	n       *node
	tr      *http.Transport
	cl      *client.Client
	refs    []string       // graph_ref of each handle (its PUT hash)
	seqs    []*refSequence // one per client
	sh      *shadow
}

func (w *refMutate) setup() error {
	hc, tr := httpClient(clients, w.b.spans, false)
	w.tr = tr
	dir, err := os.MkdirTemp(w.b.workdir, "journal-")
	if err != nil {
		return err
	}
	n, err := startNode(server.Options{}, w.b.spans, false, func(s *server.Server) error {
		_, err := s.OpenGraphJournal(filepath.Join(dir, "graph.wal"))
		return err
	})
	if err != nil {
		return err
	}
	w.n = n
	w.cl = client.New(n.url, clientOptions(hc))
	if err := n.ready(hc); err != nil {
		return err
	}
	ctx := context.Background()
	w.refs = make([]string, len(w.handles))
	for h, g := range w.handles {
		resp, err := w.cl.PutGraph(ctx, graphJSON(g))
		if err != nil {
			return fmt.Errorf("PUT handle %d: %w", h, err)
		}
		if resp.Hash != g.HashString() {
			return fmt.Errorf("PUT handle %d: server hash %s, local hash %s", h, short(resp.Hash), short(g.HashString()))
		}
		w.refs[h] = resp.Hash
	}
	// The first full solve of each handle, in the default read config. An
	// error here is the program's answer, not a set-up failure: the timed
	// reads count it if it recurs.
	for _, ref := range w.refs {
		_, _ = w.cl.Solve(ctx, server.SolveRequest{GraphRef: ref, Alg: refReadAlg(0), Eps: solveEps, Seed: 1})
	}
	return nil
}

// arm prepares the request sequences; it runs once, after the last
// set-up, outside the set-up timing.
func (w *refMutate) arm() {
	w.seqs = nil
	for c := 0; c < clients; c++ {
		w.seqs = append(w.seqs, newRefSequence(w.b.seed, c))
	}
}

// verify replays the logged answers through a shadow copy of the handles:
// each PATCH's edit is regenerated from its id.
func (w *refMutate) verify() error {
	keep := 2
	if w.b.traced {
		keep = 0 // the replay needs every version
	}
	w.sh = newShadow(w.handles, keep, w.checkRead, w.b.rec.wrong)
	return w.b.log.each(func(a answer) {
		if a.kind == kindWrite {
			w.sh.patch(a.prev, a.hash, refOpAt(w.b.seed, a.i).Edit)
			return
		}
		w.sh.read(a)
	})
}

func (w *refMutate) checkRead(v *version, a answer) {
	if err := checkAnswer(v.g, a.set, a.size, a.weight); err != nil {
		w.b.rec.wrong(fmt.Sprintf("read of %s: %v", short(v.hash), err))
		return
	}
	if a.timed {
		w.b.rec.answer(a.weight, v.greedyWeight(), a.full)
	}
}

func (w *refMutate) step(worker int) {
	var i int
	var op refOp
	w.b.rec.generate(func() { i, op = w.seqs[worker].Next() })
	ctx := w.b.ctx(i)
	ref := w.refs[op.H]
	if op.Write {
		start := time.Now()
		resp, err := w.cl.PatchGraph(ctx, ref, op.Edit)
		lat := time.Since(start)
		ok := err == nil
		w.b.rec.done("write", lat, err)
		w.b.ops.add(opEntry{i: i, kind: "write", lat: lat, ok: ok, spanned: w.b.spanned(i), patch: resp, op: op, ref: ref})
		if ok {
			w.b.log.add(answer{i: i, kind: kindWrite, hash: resp.Hash, prev: resp.PrevHash})
		}
		return
	}
	req := op.Read
	req.GraphRef = ref
	start := time.Now()
	resp, err := w.cl.Solve(ctx, req)
	lat := time.Since(start)
	err = outcome(err, resp.Status, resp.Error)
	ok := err == nil
	w.b.rec.done("read", lat, err)
	w.b.ops.add(opEntry{i: i, kind: "read", lat: lat, ok: ok, spanned: w.b.spanned(i), solve: resp, op: op, ref: ref})
	if ok {
		w.b.log.add(solveAnswer(kindRead, i, resp, !resp.Degraded && resp.Quality == "full"))
	}
}

func (w *refMutate) nodes() []*node { return []*node{w.n} }

func (w *refMutate) stop() error { return stopNode(w.tr, w.n) }

// stopNode closes a single-node workload's connections and server; either
// may be nil after a failed set-up.
func stopNode(tr *http.Transport, n *node) error {
	if tr != nil {
		tr.CloseIdleConnections()
	}
	if n == nil {
		return nil
	}
	return n.stop()
}

// ---- cluster-fanout ----------------------------------------------------

// clusterFanout is a front tier over three backends; every request is a
// distinct graph above MinFanoutNodes sent to POST /v1/cluster/solve.
type clusterFanout struct {
	b        *bench
	front    *node
	backends []*node
	coord    *cluster.Coordinator
	hc       *http.Client
	tr, btr  *http.Transport
	next     atomic.Int64
}

const clusterBackends = 3

func (w *clusterFanout) setup() error {
	var urls []string
	for k := 0; k < clusterBackends; k++ {
		n, err := startNode(server.Options{}, w.b.spans, true, nil)
		if err != nil {
			return err
		}
		w.backends = append(w.backends, n)
		urls = append(urls, n.url)
	}
	// The coordinator's backend clients get the same no-retry,
	// no-hedge, no-breaker options as the benchmark's own.
	bhc, btr := httpClient(2*clients, w.b.spans, true)
	w.btr = btr
	coord, err := cluster.New(urls, cluster.Options{
		ProbeInterval: -1,
		Client:        clientOptions(bhc),
	})
	if err != nil {
		return err
	}
	w.coord = coord
	front, err := startNode(server.Options{Cluster: coord.Handler(), ClusterMetrics: coord.WriteMetrics}, w.b.spans, false, nil)
	if err != nil {
		return err
	}
	w.front = front
	w.hc, w.tr = httpClient(clients, w.b.spans, false)
	for _, n := range w.nodes() {
		if err := n.ready(w.hc); err != nil {
			return err
		}
	}
	coord.ProbeOnce(context.Background())
	if st := coord.Stats(); st.BackendsAlive != clusterBackends {
		return fmt.Errorf("cluster ring holds %d of %d backends", st.BackendsAlive, clusterBackends)
	}
	return nil
}

func (w *clusterFanout) step(int) {
	i := int(w.next.Add(1) - 1)
	var body []byte
	w.b.rec.generate(func() {
		var err error
		if body, err = json.Marshal(clusterStream.request(w.b.seed, i).req); err != nil {
			panic(err)
		}
	})
	start := time.Now()
	resp, err := w.post(w.b.ctx(i), body)
	lat := time.Since(start)
	err = outcome(err, resp.Status, resp.Error)
	ok := err == nil
	w.b.rec.done("solve", lat, err)
	w.b.ops.add(opEntry{i: i, kind: "solve", lat: lat, ok: ok, spanned: w.b.spanned(i), cluster: resp})
	if ok {
		w.b.log.add(solveAnswer(kindSolve, i, resp.SolveResponse, !resp.Degraded && !resp.Floor))
	}
}

// post sends one cluster solve. Like the solve client it does not retry:
// any non-200 status or transport error is one failure.
func (w *clusterFanout) post(ctx context.Context, body []byte) (cluster.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.front.url+"/v1/cluster/solve", bytes.NewReader(body))
	if err != nil {
		return cluster.Response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := w.hc.Do(req)
	if err != nil {
		return cluster.Response{}, err
	}
	defer hr.Body.Close()
	var resp cluster.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return cluster.Response{}, err
	}
	_, _ = io.Copy(io.Discard, hr.Body)
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", hr.StatusCode, resp.Error)
	}
	return resp, nil
}

func (w *clusterFanout) verify() error { return w.b.verifyInline(clusterStream) }

func (w *clusterFanout) nodes() []*node {
	var out []*node
	if w.front != nil {
		out = append(out, w.front)
	}
	return append(out, w.backends...)
}

func (w *clusterFanout) stop() error {
	var err error
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	if w.front != nil {
		err = w.front.stop()
	}
	if w.coord != nil {
		w.coord.Stop()
	}
	if w.btr != nil {
		w.btr.CloseIdleConnections()
	}
	for _, n := range w.backends {
		if serr := n.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
