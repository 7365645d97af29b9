// Package congest simulates the synchronous CONGEST and LOCAL models of
// distributed computing (Peleg 2000; Linial 1992), the models all results in
// the paper are stated in.
//
// A protocol is a per-node Process. In every synchronous round each live
// node receives at most one message per incident edge (port-numbered), runs
// its local computation, and emits at most one message per port. In the
// CONGEST model every message is limited to B = c·⌈log₂ n⌉ bits — enforced
// here against the bit-exact sizes produced by package wire. The LOCAL model
// lifts the bandwidth bound.
//
// Faithfulness to the paper's assumptions (its Section 3):
//   - nodes know only their own identifier, weight, degree, and a polynomial
//     upper bound on n (NUpper); they do not know n or Δ;
//   - randomness is private per node (independent deterministic PCG streams);
//   - ports are anonymous: a node cannot see its neighbours' identifiers
//     until they are sent in messages.
//
// Three engines produce identical executions behind one shared round loop
// (see engine.go): a sequential engine that steps nodes in index order on
// one goroutine, a worker-pool engine that fans node steps out over a
// bounded pool each round, and an actor engine that dedicates one
// long-lived goroutine to every node. The actor engine's rounds are full
// barriers realised with channels: each actor blocks until the delivery
// goroutine releases it with the round number, and the delivery goroutine
// blocks until every actor has reported back, so no node can observe
// another node's mid-round state. Because per-node state is confined to
// its goroutine within a round and per-node randomness is pre-seeded, all
// three engines are bit-identical; the cross-cutting seams — delivery,
// bandwidth enforcement, fault hooks, tracing, reliable transport — live
// once in the shared loop, never per engine.
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/trace"
	"distmwis/internal/wire"
)

// Model selects the communication model.
type Model int

const (
	// ModelCongest bounds every message to Bandwidth bits per round per edge.
	ModelCongest Model = iota + 1
	// ModelLocal allows unbounded messages.
	ModelLocal
)

// ErrRoundLimit is returned when a protocol fails to terminate within the
// configured maximum number of rounds (and truncation was not requested).
var ErrRoundLimit = errors.New("congest: protocol exceeded round limit")

// NodeInfo is everything a node knows before round 1.
type NodeInfo struct {
	// Index is the simulator's internal node index. It exists so processes
	// can return outputs; protocol logic must not treat it as knowledge
	// (use ID, which is the paper's O(log n)-bit identifier).
	Index int
	// ID is the node's unique identifier.
	ID uint64
	// Degree is the number of incident edges (ports 0..Degree-1).
	Degree int
	// Weight is the node's weight w(v).
	Weight int64
	// NUpper is a polynomial upper bound on the network size, the only
	// global knowledge the paper grants (Section 3, "Assumptions").
	NUpper int
	// MaxID is an upper bound on identifier values, implied by NUpper
	// (identifiers are O(log n) bits). Used to size wire fields.
	MaxID uint64
	// MaxWeight is an upper bound on node weights (W ≤ poly(n)), used to
	// size wire fields for weight exchange.
	MaxWeight int64
	// Bandwidth is B, the per-message bit budget (0 means unbounded/LOCAL).
	Bandwidth int
	// Faulty reports that a fault-injection hook is installed for this run
	// (WithFaults). Protocols may switch to defensive message formats that
	// would be wasted bandwidth in a reliable network; with Faulty false
	// their executions must be bit-for-bit what they were without the hook.
	Faulty bool
	// Rand is the node's private randomness stream.
	Rand *rand.Rand
}

// Process is one node's state machine.
type Process interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round runs one synchronous round. in holds the messages received this
	// round, at most one per port; out takes this round's sends, at most one
	// per port. Both are valid only during the call. Returning done halts
	// the node after its outgoing messages are delivered.
	Round(round int, in Inbox, out *Outbox) (done bool)
	// Output returns the node's final (or current, if truncated) output.
	Output() any
}

// Result summarises a protocol execution.
type Result struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Outputs holds each node's Output(), indexed by node.
	Outputs []any
	// Messages counts all messages delivered.
	Messages int64
	// Bits counts the total payload bits of all messages.
	Bits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
	// Truncated reports that the run was stopped by WithHardStop or the
	// round limit before all nodes halted.
	Truncated bool
	// Bandwidth echoes the enforced per-message bit budget (0 = unbounded).
	Bandwidth int
	// FaultLost counts messages dropped by the fault layer: adversarial
	// loss, plus messages addressed to a node that was down on arrival.
	FaultLost int64
	// FaultCorrupted counts messages discarded at the receiver because the
	// payload checksum no longer matched after adversarial corruption.
	FaultCorrupted int64
	// FaultDuplicated counts duplicate copies placed into inboxes by the
	// fault layer (a fresh message on the same port overwrites the copy).
	FaultDuplicated int64
	// Retransmits counts data frames re-sent by the reliable transport
	// (WithReliable); zero without one.
	Retransmits int64
	// TransportAcks counts the transport's pure control frames (standalone
	// ACKs and keep-alive pokes). These frames are also included in
	// Messages and Bits.
	TransportAcks int64
	// Recoveries counts checkpoint-restore crash recoveries performed by
	// the transport.
	Recoveries int64
	// ReplayedRounds counts logical rounds re-executed from receive logs
	// during those recoveries.
	ReplayedRounds int64
	// DeadPorts counts transport ports whose failure detector gave up on
	// the far end.
	DeadPorts int64
}

// Engine selects how node steps are executed. All engines produce
// identical results (per-node randomness is pre-seeded and state is
// confined), differing only in scheduling.
type Engine int

const (
	// EngineAuto picks Pool for large graphs and Sequential for small ones.
	EngineAuto Engine = iota
	// EngineSequential runs node steps in index order on one goroutine.
	EngineSequential
	// EnginePool fans node steps out over a worker pool each round.
	EnginePool
	// EngineActors runs one long-lived goroutine per node — the literal
	// "goroutine as network node" mapping — with channel barriers between
	// rounds.
	EngineActors
)

type config struct {
	model           Model
	bandwidthFactor int
	seed            uint64
	maxRounds       int
	hardStop        int
	nUpper          int
	workers         int
	maxWeight       int64
	engine          Engine
	hook            DeliveryHook
	tracer          trace.Tracer
	traceLabel      string
	reliable        Reliability
}

// Option configures Run.
type Option func(*config)

// WithModel selects CONGEST (default) or LOCAL.
func WithModel(m Model) Option { return func(c *config) { c.model = m } }

// WithBandwidthFactor sets c in B = c·⌈log₂ NUpper⌉ bits (default 8).
func WithBandwidthFactor(factor int) Option {
	return func(c *config) { c.bandwidthFactor = factor }
}

// WithSeed sets the root seed from which per-node streams derive
// (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRounds overrides the safety round limit (default 1<<20).
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// WithHardStop truncates the execution after exactly r rounds, collecting
// whatever outputs nodes currently have. Used by the Section 7 lower-bound
// experiments, which study algorithms cut off before completion.
func WithHardStop(r int) Option { return func(c *config) { c.hardStop = r } }

// WithNUpper sets the polynomial upper bound on n that nodes are told
// (default: the true n, the most charitable choice). It must be >= n.
func WithNUpper(n int) Option { return func(c *config) { c.nUpper = n } }

// WithWorkers sets the worker count of the pool engine (default:
// GOMAXPROCS; values below 1 are clamped to 1). Under EngineAuto a worker
// count of 1 selects the sequential engine; with an explicit
// WithEngine(EnginePool) the pool runs with however many workers are set.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithMaxWeight sets the upper bound W ≥ max|w(v)| on node weights that
// nodes are told (NodeInfo.MaxWeight), used to size wire fields for weight
// exchange. Without this option Run scans the graph and hands every node
// the exact global maximum — knowledge the paper's Section 3 assumptions
// do not grant, and a confound in experiments that sweep W (wire fields
// would be sized by the realized maximum instead of the nominal bound).
// Run rejects a bound below the true maximum absolute weight.
func WithMaxWeight(w int64) Option { return func(c *config) { c.maxWeight = w } }

// WithEngine selects the execution engine explicitly (default EngineAuto).
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// Bandwidth computes B for a given upper bound on n and factor.
func Bandwidth(nUpper, factor int) int {
	if nUpper < 2 {
		nUpper = 2
	}
	return factor * bits.Len(uint(nUpper-1))
}

// Run executes one protocol instance per node of g until every node halts.
func Run(g *graph.Graph, newProcess func() Process, opts ...Option) (*Result, error) {
	cfg := config{
		model:           ModelCongest,
		bandwidthFactor: 8,
		seed:            1,
		maxRounds:       1 << 20,
		workers:         runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := g.N()
	if cfg.nUpper == 0 {
		cfg.nUpper = n
	}
	if cfg.nUpper < n {
		return nil, fmt.Errorf("congest: NUpper %d below n %d", cfg.nUpper, n)
	}
	if cfg.workers < 1 {
		// parallelFor would divide by zero on an explicit EnginePool with
		// zero or negative workers; a floor of 1 keeps every engine valid.
		cfg.workers = 1
	}
	bandwidth := 0
	if cfg.model == ModelCongest {
		bandwidth = Bandwidth(cfg.nUpper, cfg.bandwidthFactor)
	}
	var trueMaxWeight int64
	for v := 0; v < n; v++ {
		w := g.Weight(v)
		if w < 0 {
			w = -w
		}
		if w > trueMaxWeight {
			trueMaxWeight = w
		}
	}
	if trueMaxWeight == 0 {
		trueMaxWeight = 1
	}
	maxWeight := cfg.maxWeight
	if maxWeight == 0 {
		maxWeight = trueMaxWeight
	} else if maxWeight < trueMaxWeight {
		return nil, fmt.Errorf("congest: MaxWeight %d below actual maximum |weight| %d", cfg.maxWeight, trueMaxWeight)
	}
	maxID := g.MaxID()
	if maxID == 0 {
		maxID = 1
	}

	sim := &simulator{g: g, cfg: cfg, bandwidth: bandwidth, physBandwidth: bandwidth}
	if cfg.reliable != nil && bandwidth > 0 {
		// Transport framing (seq/ack headers) rides above the CONGEST bound:
		// inner processes still budget against B, physical frames may carry
		// the exact header on top. See Reliability.HeaderBits.
		sim.physBandwidth = bandwidth + cfg.reliable.HeaderBits()
	}
	sim.procs = make([]Process, n)
	sim.done = graph.NewBitset(n)
	// Every directed edge has one slot in each inbox table: node v's ports
	// are slots edgeOff[v] .. edgeOff[v+1]-1. The tables are flat and
	// pointer-free, so 10M-node setup is a handful of allocations and the
	// collector never scans them.
	sim.edgeOff = make([]int, n+1)
	for v := 0; v < n; v++ {
		sim.edgeOff[v+1] = sim.edgeOff[v] + g.Degree(v)
	}
	ports := 2 * g.M()
	sim.inRefs = make([]msgRef, ports)
	sim.nextRefs = make([]msgRef, ports)
	sim.peer = buildPeerSlots(g, sim.edgeOff)
	// Per-node randomness lives in two slabs as well: rand.New and
	// rand.NewPCG both inline, so filling value slots allocates nothing
	// beyond the two backing arrays.
	pcgs := make([]rand.PCG, n)
	rnds := make([]rand.Rand, n)
	for v := 0; v < n; v++ {
		proc := newProcess()
		if cfg.reliable != nil {
			proc = cfg.reliable.Wrap(proc)
		}
		sim.procs[v] = proc
		pcgs[v] = *rand.NewPCG(cfg.seed, 0x6a09e667f3bcc908^uint64(v))
		rnds[v] = *rand.New(&pcgs[v])
		sim.procs[v].Init(NodeInfo{
			Index:     v,
			ID:        g.ID(v),
			Degree:    g.Degree(v),
			Weight:    g.Weight(v),
			NUpper:    cfg.nUpper,
			MaxID:     maxID,
			MaxWeight: maxWeight,
			Bandwidth: bandwidth,
			Faulty:    cfg.hook != nil,
			Rand:      &rnds[v],
		})
	}
	return sim.run()
}

// simulator holds one execution's state.
type simulator struct {
	g         *graph.Graph
	cfg       config
	bandwidth int
	// physBandwidth is the enforced per-frame limit: bandwidth plus the
	// reliable transport's header headroom (equal to bandwidth without one).
	physBandwidth int
	procs         []Process
	done          graph.Bitset
	// edgeOff[v] is node v's first slot in the descriptor tables; peer[i]
	// is the slot at the far end of slot i's edge.
	edgeOff []int
	peer    []int32
	// inRefs is read this round and nextRefs filled by its sends; the two
	// swap after delivery.
	inRefs, nextRefs []msgRef
	// gens are the lanes' bit slabs, one generation per round parity;
	// fault holds the fault path's copies, one per delivery parity (see
	// message.go). readSlabs lists the slabs a round's inboxes index:
	// the previous round's lane slabs, then fault[0] and fault[1].
	gens      [2][]wire.Writer
	fault     [2]wire.Writer
	readSlabs [][]uint64
	outs      []Outbox
	// dups are the fault hook's duplicates arriving next round; spareDups
	// is the previous round's list, kept for reuse.
	dups, spareDups []pendingDup
	res             Result
}

// pendingDup is a duplicate copy scheduled by the fault hook: a copy of the
// original payload, re-arriving in slot one round after the first delivery.
type pendingDup struct {
	to   int
	slot int32
	ref  msgRef
}

// buildPeerSlots computes, for every directed edge (v, p), the slot of the
// reverse edge: edgeOff[u] + q where u is v's p-th neighbour and v is u's
// q-th. Because neighbour lists are sorted ascending, scanning v in
// ascending order means each u sees its neighbours arrive in exactly port
// order, so a per-node cursor assigns the reverse ports in one O(n + m)
// pass — no per-edge binary search.
func buildPeerSlots(g *graph.Graph, edgeOff []int) []int32 {
	n := g.N()
	peer := make([]int32, 2*g.M())
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		for p, u := range g.Neighbors(v) {
			peer[edgeOff[v]+p] = int32(edgeOff[u]) + cur[u]
			cur[u]++
		}
	}
	return peer
}

// beginRound points every lane's outbox at a fresh slab of this round's
// generation and at the cleared next-inbox table, and lists the slabs this
// round's inboxes read.
func (s *simulator) beginRound(round int) {
	clear(s.nextRefs)
	cur, prev := s.gens[round&1], s.gens[(round+1)&1]
	for i := range s.outs {
		cur[i].Reset()
		s.outs[i].slab = &cur[i]
		s.outs[i].refs = s.nextRefs
		s.readSlabs[i] = prev[i].Words()
	}
	k := len(s.outs)
	s.readSlabs[k] = s.fault[0].Words()
	s.readSlabs[k+1] = s.fault[1].Words()
}

// faultCopy copies r's payload into the fault slab of this delivery round.
func (s *simulator) faultCopy(round int, r wire.Reader) msgRef {
	f := &s.fault[round&1]
	off := f.Len()
	f.Append(r)
	return msgRef{off: uint64(off), slab: uint32(len(s.outs) + 1 + round&1), bits: uint32(r.Remaining())}
}

func (s *simulator) run() (*Result, error) {
	n := s.g.N()
	live := n
	s.res.Bandwidth = s.bandwidth
	// Transport counters are cumulative per Reliability instance; snapshot a
	// base so Result reports this run's deltas even if the instance is shared.
	var relBase ReliabilityCounters
	if s.cfg.reliable != nil {
		relBase = s.cfg.reliable.Counters()
	}
	finishReliable := func() {
		if s.cfg.reliable == nil {
			return
		}
		c := s.cfg.reliable.Counters()
		s.res.Retransmits = c.Retransmits - relBase.Retransmits
		s.res.TransportAcks = c.AckFrames - relBase.AckFrames
		s.res.Recoveries = c.Recoveries - relBase.Recoveries
		s.res.ReplayedRounds = c.ReplayedRounds - relBase.ReplayedRounds
		s.res.DeadPorts = c.DeadPorts - relBase.DeadPorts
	}
	doneNow := make([]bool, n)
	errs := make([]error, n)

	step := func(v, round, lane int) {
		if s.done.Get(v) {
			return
		}
		if s.cfg.hook != nil && s.cfg.hook.State(round, v) != NodeUp {
			return
		}
		lo, hi := s.edgeOff[v], s.edgeOff[v+1]
		out := &s.outs[lane]
		out.begin(v, s.peer[lo:hi:hi])
		fin := s.procs[v].Round(round, Inbox{refs: s.inRefs[lo:hi:hi], slabs: s.readSlabs}, out)
		if out.err != nil {
			errs[v] = out.err
			return
		}
		doneNow[v] = fin
	}

	engine := s.cfg.engine
	if engine == EngineAuto {
		if s.cfg.workers <= 1 || n < 64 {
			engine = EngineSequential
		} else {
			engine = EnginePool
		}
	}
	runner := newEngineRunner(engine, n, s.cfg.workers, step, errs)
	defer runner.shutdown()
	lanes := runner.lanes()
	s.outs = make([]Outbox, lanes)
	for i := range s.outs {
		s.outs[i] = Outbox{id: uint32(i + 1), limit: s.physBandwidth}
	}
	s.gens = [2][]wire.Writer{make([]wire.Writer, lanes), make([]wire.Writer, lanes)}
	s.readSlabs = make([][]uint64, lanes+2)

	if s.cfg.hook != nil {
		s.cfg.hook.Begin(n)
	}

	// Tracing state. All tracer work is guarded by tr != nil: with no
	// tracer installed the loop below does not read the clock or touch any
	// of these variables, keeping the untraced hot path unchanged.
	tr := s.cfg.tracer
	var (
		labeler  PhaseLabeler
		runIdx   int
		prev     traceCounters
		phaseT0  time.Time
		computeN int64
	)
	if tr != nil {
		if n > 0 {
			labeler, _ = s.procs[0].(PhaseLabeler)
		}
		runIdx = tr.BeginRun(trace.RunInfo{
			Label:     s.cfg.traceLabel,
			N:         n,
			Bandwidth: s.bandwidth,
			Engine:    engineName(engine),
			Seed:      s.cfg.seed,
		})
		defer func() {
			tr.EndRun(trace.Summary{
				Run:       runIdx,
				Label:     s.cfg.traceLabel,
				Rounds:    s.res.Rounds,
				Messages:  s.res.Messages,
				Bits:      s.res.Bits,
				Truncated: s.res.Truncated,
			})
		}()
	}

	for round := 1; live > 0; round++ {
		if s.cfg.hardStop > 0 && round > s.cfg.hardStop {
			s.res.Truncated = true
			break
		}
		if round > s.cfg.maxRounds {
			s.res.Truncated = true
			finishReliable()
			s.collectOutputs()
			partial := s.res
			return nil, &TruncationError{Limit: s.cfg.maxRounds, Partial: &partial}
		}
		s.res.Rounds = round
		if tr != nil {
			prev = s.snapshotCounters(live)
			phaseT0 = time.Now()
		}

		s.beginRound(round)
		runner.runRound(round)
		// Every engine reports the error of the lowest-index failing node,
		// so error selection is deterministic and engine-independent even
		// when parallel workers record several errors in the same round.
		for v := 0; v < n; v++ {
			if errs[v] != nil {
				return nil, errs[v]
			}
		}

		// Crash-stop nodes halt permanently; their Output() keeps the state
		// at crash time. Handled here, on the single delivery goroutine, so
		// the live count never races with the engine workers.
		if s.cfg.hook != nil {
			for v := 0; v < n; v++ {
				if !s.done.Get(v) && s.cfg.hook.State(round, v) == NodeStopped {
					s.done.Set(v)
					live--
				}
			}
		}

		if tr != nil {
			computeN = time.Since(phaseT0).Nanoseconds()
			phaseT0 = time.Now()
		}

		// Delivery phase: the sends are already in the next inboxes; total
		// them, pass them through the fault hook, and retire halted nodes.
		roundMaxBits := 0
		for i := range s.outs {
			o := &s.outs[i]
			s.res.Messages += o.msgs
			s.res.Bits += o.bits
			roundMaxBits = max(roundMaxBits, o.maxBits)
			o.msgs, o.bits, o.maxBits = 0, 0, 0
		}
		if roundMaxBits > s.res.MaxMessageBits {
			s.res.MaxMessageBits = roundMaxBits
		}
		if s.cfg.hook != nil {
			s.deliverFaulty(round)
		}
		for v := 0; v < n; v++ {
			if doneNow[v] {
				s.done.Set(v)
				doneNow[v] = false
				live--
			}
		}
		s.inRefs, s.nextRefs = s.nextRefs, s.inRefs

		if tr != nil {
			var retransmitsNow int64
			if s.cfg.reliable != nil {
				retransmitsNow = s.cfg.reliable.Counters().Retransmits
			}
			rec := trace.Round{
				Run:             runIdx,
				Round:           round,
				Label:           s.cfg.traceLabel,
				Messages:        s.res.Messages - prev.messages,
				Bits:            s.res.Bits - prev.bits,
				MaxMessageBits:  roundMaxBits,
				Halts:           prev.live - live,
				FaultLost:       s.res.FaultLost - prev.lost,
				FaultCorrupted:  s.res.FaultCorrupted - prev.corrupted,
				FaultDuplicated: s.res.FaultDuplicated - prev.duplicated,
				Retransmits:     retransmitsNow - prev.retransmits,
				ComputeNanos:    computeN,
				DeliveryNanos:   time.Since(phaseT0).Nanoseconds(),
			}
			if labeler != nil {
				rec.Phase = labeler.TracePhase(round)
			}
			tr.OnRound(rec)
		}
	}

	finishReliable()
	s.collectOutputs()
	out := s.res
	return &out, nil
}

// deliverFaulty passes this round's messages through the delivery hook in
// (sender, port) order, then places the duplicates scheduled last round
// wherever no fresh message arrived on the port.
func (s *simulator) deliverFaulty(round int) {
	s.fault[round&1].Reset()
	prev := s.dups
	s.dups = s.spareDups[:0]
	for v := 0; v < s.g.N(); v++ {
		if s.done.Get(v) {
			continue
		}
		lo := s.edgeOff[v]
		for p, u := range s.g.Neighbors(v) {
			slot := s.peer[lo+p]
			if ref := s.nextRefs[slot]; ref.slab != 0 {
				s.nextRefs[slot] = s.filter(round, v, int(u), slot, ref)
			}
		}
	}
	for _, d := range prev {
		if s.cfg.hook.State(round+1, d.to) != NodeUp {
			continue
		}
		s.res.FaultDuplicated++
		if s.nextRefs[d.slot].slab == 0 {
			s.nextRefs[d.slot] = d.ref
		}
	}
	s.spareDups = prev[:0]
}

// filter routes one message through the delivery hook. It returns the
// (possibly rewritten) message to deliver this round, or the zero msgRef
// if the message is lost, corrupted beyond the checksum, or addressed to a
// node that is down when it would arrive (round+1). Duplicates and
// rewrites outlive the sender's slab, so they are copied into the fault
// slab.
func (s *simulator) filter(round, from, to int, slot int32, ref msgRef) msgRef {
	if s.cfg.hook.State(round+1, to) != NodeUp {
		s.res.FaultLost++
		return msgRef{}
	}
	m := wire.NewWordReader(s.gens[round&1][ref.slab-1].Words(), int(ref.off), int(ref.bits))
	v := s.cfg.hook.Deliver(round, from, to, m)
	if v.Dup {
		// A duplicate re-sends the original frame; corruption (below) is
		// per-transmission and does not propagate into the copy.
		s.dups = append(s.dups, pendingDup{to: to, slot: slot, ref: s.faultCopy(round, m)})
	}
	if v.Drop {
		s.res.FaultLost++
		return msgRef{}
	}
	if v.Rewrite != nil {
		// The bandwidth bound must be preserved exactly, and the receiver
		// verifies the link-layer checksum: any mismatch makes the message
		// indistinguishable from a loss.
		r := v.Rewrite.Reader()
		if r.Remaining() != m.Remaining() || r.Checksum() != m.Checksum() {
			s.res.FaultCorrupted++
			return msgRef{}
		}
		return s.faultCopy(round, r)
	}
	return ref
}

func (s *simulator) collectOutputs() {
	n := s.g.N()
	s.res.Outputs = make([]any, n)
	for v := 0; v < n; v++ {
		s.res.Outputs[v] = s.procs[v].Output()
	}
}

// BoolOutputs converts a Result's outputs to a []bool membership vector;
// nodes whose output is not a bool are treated as false.
func BoolOutputs(res *Result) []bool {
	out := make([]bool, len(res.Outputs))
	for i, o := range res.Outputs {
		if b, ok := o.(bool); ok {
			out[i] = b
		}
	}
	return out
}
