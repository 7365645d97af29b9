package congest

// engineRunner is the seam between the shared round loop in simulator.run
// and the three execution engines. The loop owns everything cross-cutting —
// delivery, bandwidth enforcement, fault hooks, tracing, reliable-transport
// accounting — and per round asks the runner to invoke step(v, round, lane)
// once for every node v in [0, n). Engines differ only in *how* they schedule
// those calls; they must never touch simulator state directly, which is
// what keeps the three executions bit-identical.
//
// Contract for runRound:
//   - step(v, round, lane) is called at most once per node per round,
//     with lane in [0, lanes()) and no two concurrent calls sharing a
//     lane (each lane owns one outbox and one bit slab);
//   - node state is only ever touched from one goroutine at a time
//     (state confinement within a round);
//   - errors are reported by step writing errs[v]; the shared loop scans
//     errs in index order afterwards, so every engine yields the
//     lowest-index failing node deterministically. An engine may skip
//     remaining nodes once an error is recorded, but does not have to.
type engineRunner interface {
	// runRound executes one compute phase: step(v, round, lane) for all
	// nodes.
	// It must not return before every started step call has completed.
	runRound(round int)
	// lanes is the number of distinct lane values step is called with.
	lanes() int
	// shutdown releases any long-lived resources (goroutines, channels).
	// The runner is unusable afterwards. Must be idempotent-safe to call
	// exactly once; the shared loop defers it.
	shutdown()
}

// newEngineRunner builds the runner for a resolved engine choice. The
// EngineAuto policy lives in simulator.run, not here: by the time this is
// called the engine is one of the three concrete values (anything else
// falls back to the pool, mirroring the historical default branch).
func newEngineRunner(engine Engine, n, workers int, step func(v, round, lane int), errs []error) engineRunner {
	switch engine {
	case EngineSequential:
		return &sequentialEngine{n: n, step: step, errs: errs}
	case EngineActors:
		return newActorPool(n, step)
	default:
		return newPoolEngine(n, workers, step)
	}
}
