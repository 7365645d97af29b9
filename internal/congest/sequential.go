package congest

// sequentialEngine steps nodes in index order on the calling goroutine.
// It is the reference engine: no scheduling, no synchronization, and the
// baseline the parallel engines are checked against for bit-identity.
type sequentialEngine struct {
	n    int
	step func(v, round, lane int)
	errs []error
}

func (e *sequentialEngine) runRound(round int) {
	for v := 0; v < e.n; v++ {
		e.step(v, round, 0)
		if e.errs[v] != nil {
			// No point stepping the remaining nodes: the round is already
			// doomed, and stopping here makes the reported error trivially
			// the lowest-index one.
			break
		}
	}
}

func (e *sequentialEngine) lanes() int { return 1 }

func (e *sequentialEngine) shutdown() {}
