package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/maxis"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
	"distmwis/internal/repair"
)

// Quality vocabulary of published answers, worst to best. The repair tier
// owns the two upgrade tags; the serving tier only ever publishes degraded
// or full directly.
const (
	qualityDegraded = "degraded"
	qualityFull     = repair.QualityFull
)

// qualityRank orders tags so out-of-order publishes never downgrade a
// registry entry for the same key (same key ⇒ same graph content and
// config, so a higher-quality answer is strictly better).
func qualityRank(q string) int {
	switch q {
	case qualityDegraded:
		return 1
	case repair.QualityImproved:
		return 2
	case qualityFull:
		return 3
	}
	return 0
}

// storedAnswer is one published answer; GET /v1/answers/{key} returns it.
type storedAnswer struct {
	Key       string  `json:"key"`
	GraphHash string  `json:"graph_hash"`
	Set       []int32 `json:"set"`
	Size      int     `json:"size"`
	Weight    int64   `json:"weight"`
	// Quality is degraded|improved|full; degraded and improved answers are
	// upgraded in place by the background repair tier.
	Quality string `json:"quality"`
	// Alg names the algorithm that produced the current set — the repair
	// ladder rewrites it as the answer climbs rungs.
	Alg     string    `json:"alg,omitempty"`
	Updated time.Time `json:"updated"`
	Error   string    `json:"error,omitempty"`
}

// answerRegistry keeps the last N published answers keyed by answer key,
// FIFO-evicted. It is the observation surface for self-healing: clients
// watch an answer's quality climb without re-posting the solve.
type answerRegistry struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*list.Element
	order *list.List // front = newest inserted
}

func newAnswerRegistry(capacity int) *answerRegistry {
	return &answerRegistry{cap: capacity, byKey: make(map[string]*list.Element), order: list.New()}
}

// put inserts or upgrades an answer. Publishes that would lower the
// quality of an existing entry are dropped.
func (ar *answerRegistry) put(a *storedAnswer) {
	a.Size = len(a.Set)
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if el, ok := ar.byKey[a.Key]; ok {
		if qualityRank(a.Quality) < qualityRank(el.Value.(*storedAnswer).Quality) {
			return
		}
		el.Value = a
		return
	}
	ar.byKey[a.Key] = ar.order.PushFront(a)
	for ar.order.Len() > ar.cap {
		back := ar.order.Back()
		delete(ar.byKey, back.Value.(*storedAnswer).Key)
		ar.order.Remove(back)
	}
}

func (ar *answerRegistry) get(key string) (*storedAnswer, bool) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	el, ok := ar.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*storedAnswer), true
}

func (s *Server) handleGetAnswer(w http.ResponseWriter, r *http.Request) {
	a, ok := s.answers.get(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, storedAnswer{Error: "unknown answer key"})
		return
	}
	writeJSON(w, http.StatusOK, *a)
}

// publishUpgrade is the repair tier's publish callback: it upgrades the
// registry entry in place and, once the answer is full quality, promotes
// it into the result cache so foreground solves of the same content hit.
func (s *Server) publishUpgrade(key string, a repair.Answer) {
	hash := ""
	if prev, ok := s.answers.get(key); ok {
		hash = prev.GraphHash
	}
	set := boolsToIndices(a.Set)
	s.answers.put(&storedAnswer{
		Key:       key,
		GraphHash: hash,
		Set:       set,
		Weight:    a.Weight,
		Quality:   a.Quality,
		Alg:       a.Alg,
		Updated:   time.Now().UTC(),
	})
	if a.Quality == qualityFull {
		s.cache.put(&cacheEntry{key: key, set: set, weight: a.Weight, alg: a.Alg, tag: hash})
	}
}

// refCacheKey is the content-addressed key of a graph_ref solve. The
// fingerprint namespace is "inc|": component-wise answers may legitimately
// differ bitwise from whole-graph solves of the same content (per-component
// node renumbering changes the randomness), so the two worlds never share
// cache lines.
func (s *Server) refCacheKey(g *graph.Graph, req *SolveRequest) string {
	return cacheKey(g.Canonical(), "inc|"+req.Fingerprint())
}

// componentCache adapts the result cache to maxis.SolveByComponent for one
// request fingerprint: per-component answers are ordinary cache entries,
// keyed by fingerprint + the NUpper the component was solved with +
// component content hash, and tagged with the component hash so a mutation
// can invalidate exactly the components it destroyed.
func (s *Server) componentCache(fp string) maxis.ComponentCache {
	key := func(hash string, nUpper int) string {
		return "comp|" + fp + "|n=" + strconv.Itoa(nUpper) + "|" + hash
	}
	return maxis.ComponentCache{
		Lookup: func(hash string, nUpper int) ([]int32, bool) {
			e, ok := s.cache.get(key(hash, nUpper))
			if !ok {
				return nil, false
			}
			return e.set, true
		},
		Store: func(hash string, nUpper int, set []int32, weight int64) {
			s.cache.put(&cacheEntry{key: key(hash, nUpper), set: set, weight: weight, tag: hash})
		},
	}
}

// solveComponents runs the component-wise solve for a graph_ref request.
func (s *Server) solveComponents(req *SolveRequest, g *graph.Graph, cfg maxis.Config) (*maxis.Result, maxis.ComponentStats, error) {
	return maxis.SolveByComponent(req.Alg, g, req.Eps, req.Alpha, cfg, s.componentCache("inc|"+req.Fingerprint()))
}

// handleRefSolve is the graph_ref branch of POST /v1/solve: resolve the
// handle to its current snapshot, then cache → shed → scheduled
// component-wise solve, mirroring execute(). Every degraded answer is
// published in the registry and queued for background upgrade, so shedding
// under load is a promise deferred, not broken.
func (s *Server) handleRefSolve(w http.ResponseWriter, r *http.Request, req *SolveRequest, start time.Time) {
	g, hash, ok := s.graphs.snapshot(req.GraphRef)
	if !ok {
		errorResponse(w, http.StatusNotFound, "unknown graph %q", req.GraphRef)
		return
	}
	cfg, err := req.maxisConfig(s.opts.SolveWorkers)
	if err != nil {
		errorResponse(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.ValidateFor(g.N()); err != nil {
			errorResponse(w, http.StatusBadRequest, "fault schedule: %v", err)
			return
		}
	}
	// Planner resolution happens before refCacheKey for the same reason as
	// prepare(): the answer key must name the concrete algorithm, so a tight
	// deadline and a loose one address different answers.
	if req.Alg == plan.Auto {
		d, derr := plan.For(g, protocol.Params{Eps: req.Eps, Alpha: req.Alpha},
			plan.ForDeadline(req.DeadlineMS, s.opts.PlannerOpsPerMS), cfg.MIS)
		if derr != nil {
			errorResponse(w, http.StatusBadRequest, "plan: %v", derr)
			return
		}
		req.Alg = d.Alg
		s.metrics.planned.Add(1)
	}
	cfg.Tracer = s.metrics.engine
	cfg.TraceLabel = req.Alg
	s.metrics.requests.Add(1)
	id := fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	key := s.refCacheKey(g, req)

	finish := func(resp SolveResponse) SolveResponse {
		resp.ID = id
		resp.GraphHash = hash
		resp.AnswerKey = key
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return resp
	}

	if !req.NoCache && !req.Degraded {
		if e, ok := s.cache.get(key); ok {
			s.metrics.latency.observe("cache_hit", time.Since(start).Seconds())
			resp := entryResponse(e, true, false)
			resp.Quality = qualityFull
			writeJSON(w, http.StatusOK, finish(resp))
			return
		}
	}

	// Degraded tier — explicit request or load shedding. Unlike the
	// anonymous-graph path, a ref answer has an address, so the downgrade
	// is recoverable: publish it, queue the upgrade, tell the client where
	// to watch.
	if req.Degraded || s.sched.depth() >= s.opts.ShedDepth {
		set, weight := GreedyDegraded(g)
		s.metrics.shed.Add(1)
		s.answers.put(&storedAnswer{
			Key:       key,
			GraphHash: hash,
			Set:       boolsToIndices(set),
			Weight:    weight,
			Quality:   qualityDegraded,
			Alg:       "greedy-degraded",
			Updated:   time.Now().UTC(),
		})
		s.enqueueUpgrade(key, hash, g, set, req)
		s.metrics.latency.observe("degraded", time.Since(start).Seconds())
		writeJSON(w, http.StatusOK, finish(SolveResponse{
			Status:    "done",
			Set:       setIndices(set),
			Size:      graph.SetSize(set),
			Weight:    weight,
			Degraded:  true,
			Quality:   qualityDegraded,
			Alg:       "greedy-degraded",
			Guarantee: greedyGuarantee(g),
		}))
		return
	}

	ctx := r.Context()
	var cancel context.CancelFunc = func() {}
	if req.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	defer cancel()

	entry, shared, err := s.cache.do(ctx, key, func() (*cacheEntry, error) {
		return s.runScheduledFn(ctx, req.Priority, key, func() (*cacheEntry, error) {
			res, _, err := s.solveComponents(req, g, cfg)
			if err != nil {
				return nil, err
			}
			return &cacheEntry{
				key:       key,
				set:       boolsToIndices(res.Set),
				weight:    res.Weight,
				rounds:    res.Metrics.Rounds,
				messages:  res.Metrics.Messages,
				bits:      res.Metrics.Bits,
				alg:       req.Alg,
				guarantee: maxis.GuaranteeString(req.Alg, g, req.Eps, req.Alpha, res),
				tag:       hash,
			}, nil
		}, !req.NoCache)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.deadlines.Add(1)
			resp := finish(SolveResponse{Status: "deadline", Error: err.Error()})
			writeJSON(w, statusCode(&resp), resp)
			return
		}
		s.metrics.failures.Add(1)
		resp := finish(SolveResponse{Status: "failed", Error: err.Error()})
		writeJSON(w, statusCode(&resp), resp)
		return
	}
	s.metrics.latency.observe(req.Alg, time.Since(start).Seconds())
	s.answers.put(&storedAnswer{
		Key:       key,
		GraphHash: hash,
		Set:       entry.set,
		Weight:    entry.weight,
		Quality:   qualityFull,
		Alg:       entry.alg,
		Updated:   time.Now().UTC(),
	})
	s.graphs.recordFull(hash, req, entry.set, g.N())
	resp := entryResponse(entry, false, shared)
	resp.Quality = qualityFull
	writeJSON(w, http.StatusOK, finish(resp))
}

// recordFull remembers a handle's latest full answer and the request that
// produced it — the seed the next PATCH heals onto its new version. Skipped
// if the handle moved on while the solve ran: healing an older version's
// answer would be wrong by one more mutation than necessary.
func (gs *graphStore) recordFull(hash string, req *SolveRequest, set []int32, n int) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	h, ok := gs.byHash[hash]
	if !ok || h.hash != hash {
		return
	}
	bools := make([]bool, n)
	for _, v := range set {
		bools[v] = true
	}
	reqCopy := *req
	h.lastReq = &reqCopy
	h.lastSet = bools
}
