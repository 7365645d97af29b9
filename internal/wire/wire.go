// Package wire provides bit-exact message encoding for the CONGEST model.
//
// The CONGEST model (Peleg, 2000) bounds every per-round, per-edge message to
// B = O(log n) bits. Byte-oriented encodings systematically over-count, so
// this package packs values at bit granularity and reports the exact number
// of bits written. The congest simulator uses those counts to enforce the
// bandwidth bound honestly (e.g. Section 5 of the paper ships (c log n)-bit
// ranks over several rounds of B-bit chunks).
//
// Bits are packed little-endian into 64-bit words: the first bit written is
// the least significant bit of the first word. Readers must consume fields
// in exactly the order and width they were written; there is no
// self-description. A Writer doubles as an append-only bit slab: the
// simulator copies every round's payloads back to back into Writers it owns
// and hands out Readers over bit ranges of their words.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortBuffer is returned by Reader methods when fewer bits remain than
// were requested.
var ErrShortBuffer = errors.New("wire: read past end of buffer")

// BitsFor returns the number of bits required to represent every value in
// [0, maxValue]. BitsFor(0) == 1 so that a field is never zero-width.
func BitsFor(maxValue uint64) int {
	if maxValue == 0 {
		return 1
	}
	return bits.Len64(maxValue)
}

// Writer accumulates a bit-packed message. The zero value is ready to use.
// Bits past Len in the backing words are always zero.
type Writer struct {
	words []uint64
	nbits int
}

// WriteBits appends the low n bits of v, 0 <= n <= 64. Bits above position n
// in v must be zero; violating this corrupts subsequent fields, so WriteBits
// masks v defensively.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("wire: WriteBits width %d out of range [0,64]", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	sh := uint(w.nbits & 63)
	if sh == 0 {
		w.words = append(w.words, v)
	} else {
		w.words[len(w.words)-1] |= v << sh
		if int(sh)+n > 64 {
			w.words = append(w.words, v>>(64-sh))
		}
	}
	w.nbits += n
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteUint appends v using BitsFor(maxValue) bits. maxValue must be an a
// priori bound shared by sender and receiver (typically derived from the
// polynomial upper bound on n that every node knows).
func (w *Writer) WriteUint(v, maxValue uint64) {
	if v > maxValue {
		panic(fmt.Sprintf("wire: value %d exceeds declared max %d", v, maxValue))
	}
	w.WriteBits(v, BitsFor(maxValue))
}

// WriteInt appends a signed value in [-maxAbs, maxAbs] using zig-zag encoding
// in BitsFor(2*maxAbs) bits.
func (w *Writer) WriteInt(v, maxAbs int64) {
	if v > maxAbs || v < -maxAbs {
		panic(fmt.Sprintf("wire: value %d exceeds declared magnitude %d", v, maxAbs))
	}
	zz := uint64(v<<1) ^ uint64(v>>63)
	w.WriteBits(zz, BitsFor(2*uint64(maxAbs)))
}

// Append copies the unread bits of r onto the end of w, 64 at a time. It
// does not consume r (r is a copy).
func (w *Writer) Append(r Reader) {
	for r.pos < r.end {
		n := r.end - r.pos
		if n > 64 {
			n = 64
		}
		w.WriteBits(r.load(n), n)
		r.pos += n
	}
}

// FlipBit inverts bit i, 0 <= i < Len.
func (w *Writer) FlipBit(i int) {
	if i < 0 || i >= w.nbits {
		panic(fmt.Sprintf("wire: FlipBit %d outside [0,%d)", i, w.nbits))
	}
	w.words[i>>6] ^= 1 << uint(i&63)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbits }

// Words returns the packed words backing the writer. They are valid until
// the next write; bits past Len are zero.
func (w *Writer) Words() []uint64 { return w.words }

// Reader returns a reader over everything written so far.
func (w *Writer) Reader() Reader { return Reader{words: w.words, end: w.nbits} }

// Reset clears the writer for reuse without reallocating.
func (w *Writer) Reset() {
	w.words = w.words[:0]
	w.nbits = 0
}

// Reader consumes a bit-packed message produced by Writer: bits [pos, end)
// of a word slice. A Reader is a small value; copying it forks the cursor.
type Reader struct {
	words    []uint64
	pos, end int
}

// NewReader wraps a byte buffer holding nbits valid bits (LSB-first within
// each byte). It copies the buffer into words.
func NewReader(buf []byte, nbits int) Reader {
	words := make([]uint64, (len(buf)+7)>>3)
	for i, b := range buf {
		words[i>>3] |= uint64(b) << uint(8*(i&7))
	}
	return Reader{words: words, end: nbits}
}

// NewWordReader reads the nbits bits starting at bit off of words, without
// copying them.
func NewWordReader(words []uint64, off, nbits int) Reader {
	return Reader{words: words, pos: off, end: off + nbits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.end - r.pos }

// load returns the n (1..64) bits at the cursor without advancing it.
func (r *Reader) load(n int) uint64 {
	i, sh := r.pos>>6, uint(r.pos&63)
	v := r.words[i] >> sh
	if int(sh)+n > 64 {
		v |= r.words[i+1] << (64 - sh)
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	return v
}

// ReadBits consumes n bits and returns them as the low bits of the result.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("wire: ReadBits width %d out of range [0,64]", n)
	}
	if r.pos+n > r.end {
		return 0, fmt.Errorf("%w: want %d bits, have %d", ErrShortBuffer, n, r.end-r.pos)
	}
	if n == 0 {
		return 0, nil
	}
	v := r.load(n)
	r.pos += n
	return v, nil
}

// ReadBool consumes a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadUint consumes a value written by WriteUint with the same maxValue.
func (r *Reader) ReadUint(maxValue uint64) (uint64, error) {
	return r.ReadBits(BitsFor(maxValue))
}

// ReadInt consumes a value written by WriteInt with the same maxAbs.
func (r *Reader) ReadInt(maxAbs int64) (int64, error) {
	zz, err := r.ReadBits(BitsFor(2 * uint64(maxAbs)))
	if err != nil {
		return 0, err
	}
	return int64(zz>>1) ^ -int64(zz&1), nil
}
