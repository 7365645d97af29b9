package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	tests := []struct {
		name string
		max  uint64
		want int
	}{
		{name: "zero", max: 0, want: 1},
		{name: "one", max: 1, want: 1},
		{name: "two", max: 2, want: 2},
		{name: "three", max: 3, want: 2},
		{name: "four", max: 4, want: 3},
		{name: "byte", max: 255, want: 8},
		{name: "byte+1", max: 256, want: 9},
		{name: "max", max: math.MaxUint64, want: 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BitsFor(tt.max); got != tt.want {
				t.Errorf("BitsFor(%d) = %d, want %d", tt.max, got, tt.want)
			}
		})
	}
}

func TestWriteReadBitsRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFFFF, 16)
	w.WriteBits(0, 1)
	w.WriteBits(0x123456789ABCDEF0, 64)
	w.WriteBits(1, 1)

	if got, want := w.Len(), 3+16+1+64+1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}

	r := w.Reader()
	checks := []struct {
		n    int
		want uint64
	}{
		{3, 0b101}, {16, 0xFFFF}, {1, 0}, {64, 0x123456789ABCDEF0}, {1, 1},
	}
	for i, c := range checks {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("field %d: ReadBits(%d): %v", i, c.n, err)
		}
		if got != c.want {
			t.Errorf("field %d: got %#x, want %#x", i, got, c.want)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var w Writer
	w.WriteBits(0xFF, 3) // high bits must be masked, keeping only 0b111
	r := w.Reader()
	got, err := r.ReadBits(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0b111 {
		t.Errorf("got %#x, want 0b111", got)
	}
}

func TestReadPastEnd(t *testing.T) {
	var w Writer
	w.WriteBits(1, 4)
	r := w.Reader()
	if _, err := r.ReadBits(5); err == nil {
		t.Error("expected ErrShortBuffer reading 5 of 4 bits")
	}
}

func TestBoolRoundTrip(t *testing.T) {
	var w Writer
	vals := []bool{true, false, true, true, false, false, true, false, true}
	for _, v := range vals {
		w.WriteBool(v)
	}
	r := w.Reader()
	for i, want := range vals {
		got, err := r.ReadBool()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d: got %v, want %v", i, got, want)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	var w Writer
	const maxV = 1000
	for v := uint64(0); v <= maxV; v += 37 {
		w.WriteUint(v, maxV)
	}
	r := w.Reader()
	for v := uint64(0); v <= maxV; v += 37 {
		got, err := r.ReadUint(maxV)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("got %d, want %d", got, v)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	var w Writer
	const maxAbs = 1 << 40
	vals := []int64{0, 1, -1, 42, -42, maxAbs, -maxAbs, maxAbs - 1, -(maxAbs - 1)}
	for _, v := range vals {
		w.WriteInt(v, maxAbs)
	}
	r := w.Reader()
	for i, want := range vals {
		got, err := r.ReadInt(maxAbs)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != want {
			t.Errorf("field %d: got %d, want %d", i, got, want)
		}
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xABC, 12)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	w.WriteBits(0x5, 3)
	r := w.Reader()
	got, err := r.ReadBits(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x5 {
		t.Errorf("got %#x, want 0x5", got)
	}
}

func TestWritePanicsOnOversizeValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic writing value above declared max")
		}
	}()
	var w Writer
	w.WriteUint(11, 10)
}

// TestQuickMixedRoundTrip drives random field sequences through a
// write/read cycle and demands exact reproduction — the core invariant the
// congest simulator depends on for message integrity.
func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(uints []uint16, ints []int32, bools []bool) bool {
		var w Writer
		for _, v := range uints {
			w.WriteUint(uint64(v), math.MaxUint16)
		}
		for _, v := range ints {
			w.WriteInt(int64(v), math.MaxInt32)
		}
		for _, v := range bools {
			w.WriteBool(v)
		}
		r := w.Reader()
		for _, v := range uints {
			got, err := r.ReadUint(math.MaxUint16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		for _, v := range ints {
			got, err := r.ReadInt(math.MaxInt32)
			if err != nil || got != int64(v) {
				return false
			}
		}
		for _, v := range bools {
			got, err := r.ReadBool()
			if err != nil || got != v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBitWidthExact checks that Len is exactly the sum of declared
// widths — the property the CONGEST bandwidth enforcement relies on.
func TestQuickBitWidthExact(t *testing.T) {
	f := func(widths []uint8) bool {
		var w Writer
		total := 0
		for _, wd := range widths {
			n := int(wd%64) + 1 // widths in [1,64]
			w.WriteBits(0, n)
			total += n
		}
		return w.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNewReaderByteOrder pins the byte view of the word packing: bits are
// LSB-first within each byte, bytes little-endian within each word.
func TestNewReaderByteOrder(t *testing.T) {
	r := NewReader([]byte{0x01, 0x80, 0, 0, 0, 0, 0, 0, 0xA5}, 72)
	for _, want := range []struct {
		n int
		v uint64
	}{{1, 1}, {14, 0}, {1, 1}, {48, 0}, {8, 0xA5}} {
		if got, err := r.ReadBits(want.n); err != nil || got != want.v {
			t.Fatalf("ReadBits(%d) = %#x, %v; want %#x", want.n, got, err, want.v)
		}
	}
	var w Writer
	w.WriteBits(0x1, 1)
	w.WriteBits(0, 14)
	w.WriteBits(0x1, 1)
	w.WriteBits(0, 48)
	w.WriteBits(0xA5, 8)
	if Checksum([]byte{0x01, 0x80, 0, 0, 0, 0, 0, 0, 0xA5}, 72) != w.Reader().Checksum() {
		t.Fatal("byte and word checksums of the same payload differ")
	}
}
