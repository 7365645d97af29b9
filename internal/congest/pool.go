package congest

import (
	"sync"
	"sync/atomic"
)

// poolEngine fans node steps out over a fixed set of persistent workers.
// Workers are spawned once at construction and live across rounds, parked
// on per-worker start channels between rounds (the same barrier discipline
// as actorPool, amortised over workers instead of nodes); runRound releases
// them and joins on a shared done channel, so per-round overhead is
// `workers` channel operations instead of `workers` goroutine launches.
//
// Within a round, work is handed out by guided chunking: a shared atomic
// cursor from which each worker repeatedly claims the next fixed-size chunk
// of node indices. Small chunks mean a worker stuck on a run of hot
// high-degree nodes (power-law graphs cluster hubs at low indices) only
// monopolises one chunk's worth of them while the others drain the rest —
// the static contiguous split this replaces pinned the entire hub range to
// a single worker. Results stay deterministic regardless of which worker
// claims which chunk: step confines each node's state to the claiming
// goroutine for the round, and per-node randomness is pre-seeded.
type poolEngine struct {
	n       int
	chunk   int
	cursor  atomic.Int64
	start   []chan int
	done    chan struct{}
	wg      sync.WaitGroup
	step    func(v, round, lane int)
	workers int
}

// poolChunk picks the guided chunk size: aim for several chunks per worker
// so skewed per-node costs rebalance, with a floor that keeps the atomic
// cursor off the profile for small n.
func poolChunk(n, workers int) int {
	chunk := n / (workers * 8)
	if chunk < 16 {
		chunk = 16
	}
	return chunk
}

func newPoolEngine(n, workers int, step func(v, round, lane int)) *poolEngine {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	e := &poolEngine{
		n:       n,
		chunk:   poolChunk(n, workers),
		start:   make([]chan int, workers),
		done:    make(chan struct{}, workers),
		step:    step,
		workers: workers,
	}
	for w := 0; w < workers; w++ {
		e.start[w] = make(chan int, 1)
		e.wg.Add(1)
		go func(ch chan int, lane int) {
			defer e.wg.Done()
			for round := range ch {
				for {
					lo := int(e.cursor.Add(int64(e.chunk))) - e.chunk
					if lo >= e.n {
						break
					}
					hi := lo + e.chunk
					if hi > e.n {
						hi = e.n
					}
					for v := lo; v < hi; v++ {
						e.step(v, round, lane)
					}
				}
				e.done <- struct{}{}
			}
		}(e.start[w], w)
	}
	return e
}

// runRound releases every worker for one round and joins them. The joins
// form the round barrier: no worker can run ahead because its start channel
// is only written here, and the cursor is reset before any release.
func (e *poolEngine) runRound(round int) {
	e.cursor.Store(0)
	for _, ch := range e.start {
		ch <- round
	}
	for range e.start {
		<-e.done
	}
}

// lanes is one per worker: each worker writes its own slab.
func (e *poolEngine) lanes() int { return e.workers }

// shutdown terminates and joins all workers.
func (e *poolEngine) shutdown() {
	for _, ch := range e.start {
		close(ch)
	}
	e.wg.Wait()
}

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines and
// waits for completion. Work is handed out by the same guided chunking as
// poolEngine — an atomic cursor over fixed-size chunks — so a contiguous
// run of expensive indices (hub nodes of a degree-skewed graph) rebalances
// across workers instead of serialising on one. Worker counts below 1 are
// treated as 1 (Run also clamps; second line of defence for direct callers).
func parallelFor(n, workers int, fn func(int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := poolChunk(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
