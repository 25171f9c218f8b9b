package cubesketch

import (
	"crypto/subtle"
	"encoding/binary"
	"unsafe"
)

// The body codec: a serialized sketch body is the little-endian image of
// its alphas followed by that of its gammas (see the package comment), so
// on a little-endian host moving a body between a buffer and the bucket
// arrays is two byte copies, and XORing one into them two XORBytes calls.
// The word-at-a-time loops are the portable definition: the only codec on
// a big-endian host, and the reference the byte one is tested against on
// every host (TestCodecFastEqualsPortable). Callers have already checked
// that buf holds the whole body; headers are theirs to write and validate.
//
// The byte views are always of the typed arrays, never word views of buf:
// a sketch with an odd bucket count leaves every other round's body
// 4-byte-aligned inside a node slot, and a []byte reinterpreted as
// []uint64 there is a misaligned pointer (checkptr rejects it under
// -race).

// headerSize is the serialized sketch header: n, seed, cols, rows.
const headerSize = 8 * 4

// putBody writes the buckets' serialized body to the front of buf.
func putBody(buf []byte, alphas []uint64, gammas []uint32) {
	if hostLittleEndian {
		n := copy(buf, wordBytes(alphas))
		copy(buf[n:], halfBytes(gammas))
		return
	}
	putBodyPortable(buf, alphas, gammas)
}

// getBody replaces the buckets with the serialized body at the front of
// buf.
func getBody(alphas []uint64, gammas []uint32, buf []byte) {
	if hostLittleEndian {
		a := wordBytes(alphas)
		copy(a, buf[:len(a)])
		copy(halfBytes(gammas), buf[len(a):])
		return
	}
	getBodyPortable(alphas, gammas, buf)
}

// xorBody XORs the serialized body at the front of buf into the buckets.
func xorBody(alphas []uint64, gammas []uint32, buf []byte) {
	if hostLittleEndian {
		a, g := wordBytes(alphas), halfBytes(gammas)
		subtle.XORBytes(a, a, buf[:len(a)])
		subtle.XORBytes(g, g, buf[len(a):])
		return
	}
	xorBodyPortable(alphas, gammas, buf)
}

// xorBuckets XORs the src buckets into dst's. Memory against memory of
// one type, so the byte views are right in either byte order.
func xorBuckets(dstA, srcA []uint64, dstG, srcG []uint32) {
	a, g := wordBytes(dstA), halfBytes(dstG)
	subtle.XORBytes(a, a, wordBytes(srcA))
	subtle.XORBytes(g, g, halfBytes(srcG))
}

func putBodyPortable(buf []byte, alphas []uint64, gammas []uint32) {
	off := 0
	for _, a := range alphas {
		binary.LittleEndian.PutUint64(buf[off:], a)
		off += 8
	}
	for _, g := range gammas {
		binary.LittleEndian.PutUint32(buf[off:], g)
		off += 4
	}
}

func getBodyPortable(alphas []uint64, gammas []uint32, buf []byte) {
	off := 0
	for i := range alphas {
		alphas[i] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	for i := range gammas {
		gammas[i] = binary.LittleEndian.Uint32(buf[off:])
		off += 4
	}
}

func xorBodyPortable(alphas []uint64, gammas []uint32, buf []byte) {
	off := 0
	for i := range alphas {
		alphas[i] ^= binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	for i := range gammas {
		gammas[i] ^= binary.LittleEndian.Uint32(buf[off:])
		off += 4
	}
}

// wordBytes and halfBytes view a bucket array's memory as bytes.
func wordBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

func halfBytes(h []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(h))), len(h)*4)
}
