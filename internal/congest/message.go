package congest

import (
	"fmt"

	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// Message transport.
//
// A round's payloads live in flat bit slabs (wire.Writers used as
// append-only bit buffers) owned by the simulator, and every inbox slot is
// a pointer-free msgRef naming a slab, a bit offset and a bit length.
// Sending copies the payload into the sending lane's slab once (a
// broadcast once for all its ports) and writes its descriptor straight
// into the receivers' slots of the next-inbox table; every slot has
// exactly one sender, so lanes never write the same slot. Nothing per
// message is allocated, and the tables hold no pointers for the garbage
// collector to scan or write-barrier.
//
// Slab ownership, for a round r (see simulator.run):
//
//	round r   compute   lane i appends the sends of the nodes it steps to
//	                    slab gen[r%2][i]; only lane i writes it
//	round r   delivery  the fault path, if any, filters the descriptors
//	                    and copies duplicates and rewritten payloads into
//	                    fault[r%2]
//	round r+1 compute   receivers read gen[r%2] and the fault slabs
//	round r+2 start     gen[r%2] is reset (its length only) and refilled
//
// A lane is one worker of the pool engine, the single sequential lane, or
// one actor, so no two goroutines ever append to the same slab. The
// fault slabs are written only on the delivery goroutine. fault[r%2] is
// reset at the start of delivery r+2: by then the corrupted payloads it
// holds were read in round r+1 and the duplicates, which re-arrive one
// round late, in round r+2.

// msgRef locates one message: bits [off, off+bits) of the slab with
// 1-based index slab in the reading round's slab list. The zero msgRef is
// "no message".
type msgRef struct {
	off  uint64
	slab uint32
	bits uint32
}

// Inbox is a node's read-only view of the messages it received this round:
// at most one per port. It is valid only during the Round call it was
// passed to; a process that keeps a payload longer must copy it (for
// example with wire.Writer.Append).
type Inbox struct {
	refs  []msgRef
	slabs [][]uint64
}

// Len returns the number of ports.
func (in Inbox) Len() int { return len(in.refs) }

// Reader returns a reader over the message received on port, and false if
// none arrived.
func (in Inbox) Reader(port int) (wire.Reader, bool) {
	ref := in.refs[port]
	if ref.slab == 0 {
		return wire.Reader{}, false
	}
	return wire.NewWordReader(in.slabs[ref.slab-1], int(ref.off), int(ref.bits)), true
}

// Outbox collects a node's sends for one round: at most one message per
// port. Each method copies the writer's payload, so the writer may be reset
// and reused immediately. The bandwidth bound is checked at send time: an
// oversized, misaddressed or second message on a port is not sent, and the
// run fails with the error of the lowest failing port.
type Outbox struct {
	// dst[p] is the slot of refs that port p's message lands in: the
	// receiver's inbox slot for the reverse edge.
	dst     []int32
	refs    []msgRef
	slab    *wire.Writer
	id      uint32
	limit   int
	node    int
	err     error
	errPort int
	// msgs, bits and maxBits total the lane's sends since the simulator
	// last collected them.
	msgs, bits int64
	maxBits    int
	scratch    wire.Writer
}

// begin points the outbox at node's destination slots and clears its
// error.
func (o *Outbox) begin(node int, dst []int32) {
	o.node = node
	o.dst = dst
	o.err = nil
}

// Writer returns a reset scratch writer owned by the outbox, for building
// the next message without an allocation of the process's own. Its
// contents are valid until the next Writer call.
func (o *Outbox) Writer() *wire.Writer {
	o.scratch.Reset()
	return &o.scratch
}

// Send sends w's payload on port.
func (o *Outbox) Send(port int, w *wire.Writer) {
	if port < 0 || port >= len(o.dst) {
		o.fail(port, fmt.Errorf("congest: node %d sent on port %d but has degree %d", o.node, port, len(o.dst)))
		return
	}
	if o.fits(port, w) {
		o.place(port, o.put(w))
	}
}

// Broadcast sends w's payload on every port.
func (o *Outbox) Broadcast(w *wire.Writer) { o.BroadcastMasked(w, nil) }

// BroadcastMasked sends w's payload on every port p with mask.Get(p) —
// typically the ports whose neighbours are still active. A nil mask
// selects every port.
func (o *Outbox) BroadcastMasked(w *wire.Writer, mask graph.Bitset) {
	var ref msgRef
	for p := range o.dst {
		if mask != nil && !mask.Get(p) {
			continue
		}
		if ref.slab == 0 {
			if !o.fits(p, w) {
				return
			}
			ref = o.put(w)
		}
		o.place(p, ref)
	}
}

// Err returns the send error recorded since the outbox was last pointed at
// a node, or nil.
func (o *Outbox) Err() error { return o.err }

func (o *Outbox) fits(port int, w *wire.Writer) bool {
	if o.limit > 0 && w.Len() > o.limit {
		o.fail(port, fmt.Errorf("congest: node %d port %d message of %d bits exceeds bandwidth %d", o.node, port, w.Len(), o.limit))
		return false
	}
	return true
}

func (o *Outbox) fail(port int, err error) {
	if o.err == nil || port < o.errPort {
		o.err, o.errPort = err, port
	}
}

// put copies w's payload into the lane's slab.
func (o *Outbox) put(w *wire.Writer) msgRef {
	off := o.slab.Len()
	o.slab.Append(w.Reader())
	o.maxBits = max(o.maxBits, w.Len())
	return msgRef{off: uint64(off), slab: o.id, bits: uint32(w.Len())}
}

// place delivers ref on port. The destination slot is empty unless this
// node already sent on the port this round.
func (o *Outbox) place(port int, ref msgRef) {
	d := o.dst[port]
	if o.refs[d].slab != 0 {
		o.fail(port, fmt.Errorf("congest: node %d sent twice on port %d", o.node, port))
		return
	}
	o.refs[d] = ref
	o.msgs++
	o.bits += int64(ref.bits)
}

// Mailbox is one node's message table outside the simulator: a private
// slab with one optional payload per port, written through Outbox or Put
// and read through Inbox. Layers that step a process themselves (the
// reliable transport) use it to capture the process's sends and to hand
// it payloads they kept across rounds.
type Mailbox struct {
	slab  wire.Writer
	refs  []msgRef
	slabs [1][]uint64
	out   Outbox
}

// NewMailbox builds a mailbox for a node with the given index and port
// count; its outbox enforces bandwidth (0 = unbounded).
func NewMailbox(node, ports, bandwidth int) *Mailbox {
	b := &Mailbox{refs: make([]msgRef, ports)}
	dst := make([]int32, ports)
	for p := range dst {
		dst[p] = int32(p)
	}
	b.out = Outbox{dst: dst, refs: b.refs, slab: &b.slab, id: 1, limit: bandwidth, node: node}
	return b
}

// Reset empties every port and the outbox's error.
func (b *Mailbox) Reset() {
	clear(b.refs)
	b.slab.Reset()
	b.out.err = nil
}

// Put stores a copy of r's unread bits as the payload of port.
func (b *Mailbox) Put(port int, r wire.Reader) {
	off := b.slab.Len()
	b.slab.Append(r)
	b.refs[port] = msgRef{off: uint64(off), slab: 1, bits: uint32(r.Remaining())}
}

// Outbox returns an outbox that writes into the mailbox.
func (b *Mailbox) Outbox() *Outbox { return &b.out }

// Inbox returns a view of the mailbox's current contents, valid until the
// next write.
func (b *Mailbox) Inbox() Inbox {
	b.slabs[0] = b.slab.Words()
	return Inbox{refs: b.refs, slabs: b.slabs[:]}
}
