package congest

import "sync"

// actorPool runs one long-lived goroutine per node, released round by
// round through per-node channels and joined through a shared completion
// channel. It realizes the "one goroutine = one network node" execution
// model; results are identical to the other engines because node state
// never leaves its goroutine within a round.
type actorPool struct {
	start []chan int
	done  chan struct{}
	wg    sync.WaitGroup
}

func newActorPool(n int, step func(v, round, lane int)) *actorPool {
	p := &actorPool{
		start: make([]chan int, n),
		done:  make(chan struct{}, 1),
	}
	for v := 0; v < n; v++ {
		p.start[v] = make(chan int, 1)
		p.wg.Add(1)
		go func(v int) {
			defer p.wg.Done()
			for round := range p.start[v] {
				step(v, round, v)
				p.done <- struct{}{}
			}
		}(v)
	}
	return p
}

// runRound releases every actor for one round and waits for all of them.
// The n receives on done form the round barrier: no actor can run ahead
// into round r+1 because its start channel is only written here.
func (p *actorPool) runRound(round int) {
	for _, ch := range p.start {
		ch <- round
	}
	for range p.start {
		<-p.done
	}
}

// lanes is one per actor: each node writes its own slab.
func (p *actorPool) lanes() int { return len(p.start) }

// shutdown terminates and joins all actors.
func (p *actorPool) shutdown() {
	for _, ch := range p.start {
		close(ch)
	}
	p.wg.Wait()
}
