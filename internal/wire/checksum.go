package wire

// ChecksumBits is the width of the payload checksum used by the fault
// layer. CRC-8 detects every burst error of length ≤ 8 bits, so as long as
// the adversary flips at most ChecksumBits consecutive bits per message
// (the contract enforced by package fault), corruption is detected with
// certainty — "corrupt" can then be treated as "lost" without ever
// accepting a flipped payload.
const ChecksumBits = 8

// crc8Poly is the CRC-8/ATM polynomial x^8 + x^2 + x + 1.
const crc8Poly = 0x07

// Checksum computes a CRC-8 over the first nbits bits of data, processing
// the payload bit-by-bit in wire order (LSB-first within each byte) so the
// result is exact for bit-packed messages whose final byte is only
// partially used. nbits must not exceed 8*len(data).
func Checksum(data []byte, nbits int) uint8 {
	r := NewReader(data, nbits)
	return r.Checksum()
}

// Checksum computes the CRC-8 of Checksum over the reader's unread bits,
// without consuming them.
func (r Reader) Checksum() uint8 {
	var crc uint8
	for ; r.pos < r.end; r.pos++ {
		bit := uint8(r.words[r.pos>>6]>>uint(r.pos&63)) & 1
		crc ^= bit << 7
		if crc&0x80 != 0 {
			crc = crc<<1 ^ crc8Poly
		} else {
			crc <<= 1
		}
	}
	return crc
}
