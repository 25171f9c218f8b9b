// Package cubesketch implements CubeSketch, the paper's specialized
// l0-sampling algorithm for vectors over the integers mod 2 (Section 3.1).
//
// A CubeSketch summarizes a vector x ∈ Z_2^n under a stream of index
// toggles and can, with probability at least 1-δ, return the position of a
// nonzero entry of x. It is linear: XOR-merging two sketches with the same
// parameters and seed yields a sketch of the XOR (mod-2 sum) of their
// vectors. GraphZeppelin exploits linearity to emulate Boruvka's algorithm:
// summing the sketches of all nodes in a component yields a sketch of the
// component's cut vector.
//
// Layout: numColumns independent columns (the log(1/δ) repetitions), each a
// geometric cascade of numRows buckets. An index idx lands in exactly one
// bucket per column — the one at the trailing-zero depth of the column's
// hash of idx — so row r sees each index with probability 2^-(r+1) and,
// for any support size up to n, some row's expected occupancy is Θ(1). A
// bucket holds α (XOR of member indices, stored 1-based so the empty
// bucket is unambiguous) and a 32-bit checksum γ (XOR of a hash of each
// member index). A bucket with exactly one member passes the checksum test
// γ == h2(α) and yields its index; buckets with more members fail the test
// with high probability.
//
// Everything a round's columns need for an index — every column's bucket
// depth and the one checksum they all store — derives from a single
// 64-bit hash per round (kernel.go): the checksum is its high 32 bits, and
// each column's depth is the trailing-zero count of a disjoint bit field
// of it or of one more folded multiply. At the default 7 columns that is
// one hash call and three more multiplies per (round, index), with no
// data-dependent inner loop. Update, the per-index definition, follows it
// with one bucket write per column. The batched entry points —
// UpdateBatch and Slab.Apply, the system's hottest path — share one kernel
// (xorBatch, kernel.go) that makes one pass over the batch per round and
// writes each index's buckets of the round back to back.
//
// Serialized form: a 32-byte header (n, seed, cols, rows as little-endian
// uint64s) followed by the body, which is the little-endian image of the
// bucket arrays themselves — every α as 8 bytes, then every γ as 4 — and a
// node's slot (Slab.MarshalNode; the disk store's, the checkpoints' and
// the before-images' unit) is its rounds' serialized sketches back to
// back. On a little-endian host the body therefore IS the arrays' memory,
// and everything that moves one between a buffer and a sketch relies on
// it: Sketch.MarshalInto, UnmarshalBinary and MergeBinary,
// Slab.MarshalNode(s), UnmarshalNode(s) and MergeNodeBinary are a header
// plus byte copies or XORBytes over byte views of the typed arrays
// (codec.go; the word-at-a-time loops there are the definition, the only
// codec on a big-endian host, and the reference the byte one is tested
// against). MergeSerialized needs no sketch at all: the XOR of two bodies
// is the body of the XOR in either byte order, as is the XOR of two bucket
// arrays in memory (Merge, Slab.MergeRounds).
package cubesketch

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"graphzeppelin/internal/hashing"
)

// DefaultColumns is the number of independent columns used when the caller
// does not override it. The paper uses log(1/δ)=7 columns per sketch for a
// per-sketch failure probability δ far below 1/100 in practice.
const DefaultColumns = 7

// Errors returned by Query.
var (
	// ErrEmpty means every bucket is empty, i.e. the sketched vector is
	// the zero vector (no nonzero index was ever toggled an odd number of
	// times). For a cut sketch this means "no edge crosses the cut".
	ErrEmpty = errors.New("cubesketch: sketch is empty (zero vector)")
	// ErrFailed means the sketch is nonzero but no bucket had support
	// exactly 1; sampling failed this time. Probability at most δ.
	ErrFailed = errors.New("cubesketch: no good bucket (sampling failure)")
)

// Sketch is a CubeSketch of a vector in Z_2^n.
type Sketch struct {
	n        uint64 // vector length; valid indices are [0, n)
	cols     int
	rows     int
	seed     uint64
	hashSeed uint64   // the Mix64 seed every column's rows derive from
	alphas   []uint64 // cols*rows, row-major within column
	gammas   []uint32 // parallel to alphas
	updates  uint64   // total updates applied (diagnostics only)
}

// NumRows returns the bucket-cascade depth used for a vector of length n:
// ⌈log2(n)⌉ + 2, enough rows that some row isolates a single nonzero entry
// for any support size up to n (Lemma 2 of the paper).
func NumRows(n uint64) int {
	if n <= 1 {
		return 3
	}
	return bits.Len64(n-1) + 2
}

// New creates a CubeSketch for vectors of length n with the given number
// of columns and hash seed. Two sketches are mergeable iff they were
// created with identical n, cols, and seed.
func New(n uint64, cols int, seed uint64) *Sketch {
	if n == 0 {
		panic("cubesketch: vector length must be positive")
	}
	if cols <= 0 {
		cols = DefaultColumns
	}
	rows := NumRows(n)
	return &Sketch{
		n:        n,
		cols:     cols,
		rows:     rows,
		seed:     seed,
		hashSeed: hashSeed(seed),
		alphas:   make([]uint64, cols*rows),
		gammas:   make([]uint32, cols*rows),
	}
}

// N returns the vector length the sketch was built for.
func (s *Sketch) N() uint64 { return s.n }

// Columns returns the number of independent columns.
func (s *Sketch) Columns() int { return s.cols }

// Rows returns the bucket-cascade depth per column.
func (s *Sketch) Rows() int { return s.rows }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// Updates returns the number of updates applied to this sketch since
// creation (not preserved across Merge; diagnostics only).
func (s *Sketch) Updates() uint64 { return s.updates }

// Bytes returns the in-memory size of the bucket arrays in bytes: the
// quantity Figure 5 of the paper reports (12 bytes per bucket).
func (s *Sketch) Bytes() int { return len(s.alphas)*8 + len(s.gammas)*4 }

// Update toggles vector index idx (adds 1 mod 2). idx must be < N().
func (s *Sketch) Update(idx uint64) {
	if idx >= s.n {
		panic(fmt.Sprintf("cubesketch: index %d out of range for n=%d", idx, s.n))
	}
	s.updates++
	var buf [16]uint8
	d := rowBuf(buf[:], s.cols)
	g := hashing.Mix64(s.hashSeed, idx)
	rowsOf(g, s.rows, d)
	for c, row := range d {
		i := c*s.rows + int(row)
		s.alphas[i] ^= idx + 1 // 1-based so the empty bucket (0,0) is unambiguous
		s.gammas[i] ^= checksum(g)
	}
}

// UpdateBatch toggles each index in batch. Bucket-identical to calling
// Update on each element (XOR accumulation is order-independent), through
// the same bucket-XOR kernel as Slab.Apply (xorBatch), which validates the
// whole batch once.
func (s *Sketch) UpdateBatch(batch []uint64) {
	xorBatch(s.n, s.rows, []uint64{s.hashSeed}, s.alphas, s.gammas, batch)
	s.updates += uint64(len(batch))
}

// Query returns the position of some nonzero entry of the sketched vector.
// It returns ErrEmpty if the vector is (apparently) zero and ErrFailed if
// no bucket isolates a single entry. A returned index passed the 32-bit
// checksum, so a wrong answer occurs only on a hash collision.
func (s *Sketch) Query() (uint64, error) {
	empty := true
	for col := 0; col < s.cols; col++ {
		base := col * s.rows
		for row := 0; row < s.rows; row++ {
			alpha := s.alphas[base+row]
			gamma := s.gammas[base+row]
			if alpha == 0 && gamma == 0 {
				continue
			}
			empty = false
			if alpha == 0 || alpha > s.n {
				continue // XOR of several indices; cannot be a real entry
			}
			idx := alpha - 1
			if checksum(hashing.Mix64(s.hashSeed, idx)) == gamma {
				return idx, nil
			}
		}
	}
	if empty {
		return 0, ErrEmpty
	}
	return 0, ErrFailed
}

// Merge XOR-combines other into s, so that s becomes a sketch of the mod-2
// sum of the two underlying vectors. The sketches must share parameters
// and seed.
func (s *Sketch) Merge(other *Sketch) error {
	if s.n != other.n || s.cols != other.cols || s.rows != other.rows || s.seed != other.seed {
		return fmt.Errorf("cubesketch: incompatible sketches (n=%d/%d cols=%d/%d seed=%#x/%#x)",
			s.n, other.n, s.cols, other.cols, s.seed, other.seed)
	}
	xorBuckets(s.alphas, other.alphas, s.gammas, other.gammas)
	return nil
}

// MergeBinary XOR-combines a serialized sketch (the MarshalBinary format)
// into s without allocating or deserializing into an intermediate Sketch.
// The serialized header must match s's parameters and seed exactly. It is
// the zero-garbage merge path the engine's out-of-core query scan uses to
// sum supernode sketches straight out of the sequential-scan buffer.
func (s *Sketch) MergeBinary(buf []byte) error {
	if len(buf) < s.SerializedSize() {
		return fmt.Errorf("cubesketch: serialized sketch is %d bytes, need %d", len(buf), s.SerializedSize())
	}
	n := binary.LittleEndian.Uint64(buf[0:])
	seed := binary.LittleEndian.Uint64(buf[8:])
	cols := int(binary.LittleEndian.Uint64(buf[16:]))
	rows := int(binary.LittleEndian.Uint64(buf[24:]))
	if n != s.n || seed != s.seed || cols != s.cols || rows != s.rows {
		return fmt.Errorf("cubesketch: incompatible serialized sketch (n=%d/%d cols=%d/%d rows=%d/%d seed=%#x/%#x)",
			n, s.n, cols, s.cols, rows, s.rows, seed, s.seed)
	}
	xorBody(s.alphas, s.gammas, buf[headerSize:s.SerializedSize()])
	return nil
}

// MergeSerialized XOR-combines two serialized sketches (the MarshalBinary
// format) without deserializing either: dst becomes the serialization of
// the merge. Because the body is raw little-endian bucket words, the XOR of
// two serialized bodies IS the serialized body of the XOR — so checkpoint
// merging of disk-resident slots needs no Sketch at all, just one XORBytes
// over the bodies. The two headers must be byte-identical (same n, seed, cols, rows);
// both buffers must hold the full serialized sketch.
func MergeSerialized(dst, src []byte) error {
	if len(dst) < 32 || len(src) < 32 {
		return errors.New("cubesketch: truncated serialized sketch header")
	}
	for i := 0; i < 32; i++ {
		if dst[i] != src[i] {
			return fmt.Errorf("cubesketch: serialized sketch headers differ (n=%d/%d cols=%d/%d rows=%d/%d seed=%#x/%#x)",
				binary.LittleEndian.Uint64(dst[0:]), binary.LittleEndian.Uint64(src[0:]),
				binary.LittleEndian.Uint64(dst[16:]), binary.LittleEndian.Uint64(src[16:]),
				binary.LittleEndian.Uint64(dst[24:]), binary.LittleEndian.Uint64(src[24:]),
				binary.LittleEndian.Uint64(dst[8:]), binary.LittleEndian.Uint64(src[8:]))
		}
	}
	cols := binary.LittleEndian.Uint64(dst[16:])
	rows := binary.LittleEndian.Uint64(dst[24:])
	if cols == 0 || rows == 0 || cols > 1<<20 || rows > 1<<20 {
		return fmt.Errorf("cubesketch: corrupt serialized header (cols=%d rows=%d)", cols, rows)
	}
	size := 32 + int(cols*rows)*12
	if len(dst) < size || len(src) < size {
		return fmt.Errorf("cubesketch: serialized sketch is %d/%d bytes, need %d", len(dst), len(src), size)
	}
	subtle.XORBytes(dst[headerSize:size], dst[headerSize:size], src[headerSize:size])
	return nil
}

// Reset zeroes the sketch in place, making it a sketch of the zero vector
// again. The parameters and seed are retained.
func (s *Sketch) Reset() {
	clear(s.alphas)
	clear(s.gammas)
	s.updates = 0
}

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.alphas = append([]uint64(nil), s.alphas...)
	c.gammas = append([]uint32(nil), s.gammas...)
	return &c
}

// IsZero reports whether every bucket is empty.
func (s *Sketch) IsZero() bool {
	for _, a := range s.alphas {
		if a != 0 {
			return false
		}
	}
	for _, g := range s.gammas {
		if g != 0 {
			return false
		}
	}
	return true
}

// SerializedSize returns the exact byte length of MarshalBinary's output
// for this sketch's parameters; it is fixed given (n, cols).
func (s *Sketch) SerializedSize() int {
	return 8*4 + len(s.alphas)*8 + len(s.gammas)*4
}

// SerializedSize returns the serialized byte length of a sketch built by
// New(n, cols, ·) without building one: a decoder sizing a foreign header's
// claim must not allocate by it.
func SerializedSize(n uint64, cols int) int {
	return 8*4 + cols*NumRows(n)*(8+4)
}

// MarshalBinary encodes the sketch in a fixed-size little-endian format:
// header (n, seed, cols, rows as uint64s) followed by the alpha and gamma
// arrays.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, s.SerializedSize())
	s.MarshalInto(buf)
	return buf, nil
}

// MarshalInto encodes the sketch into buf, which must be at least
// SerializedSize() bytes. It returns the number of bytes written.
func (s *Sketch) MarshalInto(buf []byte) int {
	binary.LittleEndian.PutUint64(buf[0:], s.n)
	binary.LittleEndian.PutUint64(buf[8:], s.seed)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.cols))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.rows))
	size := s.SerializedSize()
	putBody(buf[headerSize:size], s.alphas, s.gammas)
	return size
}

// UnmarshalBinary decodes a sketch previously encoded by MarshalBinary,
// replacing s's contents.
func (s *Sketch) UnmarshalBinary(buf []byte) error {
	if len(buf) < 32 {
		return errors.New("cubesketch: truncated header")
	}
	n := binary.LittleEndian.Uint64(buf[0:])
	seed := binary.LittleEndian.Uint64(buf[8:])
	cols := int(binary.LittleEndian.Uint64(buf[16:]))
	rows := int(binary.LittleEndian.Uint64(buf[24:]))
	if n == 0 || cols <= 0 || rows <= 0 || cols > 1<<20 || rows > 1<<20 {
		return fmt.Errorf("cubesketch: corrupt header (n=%d cols=%d rows=%d)", n, cols, rows)
	}
	need := 32 + cols*rows*8 + cols*rows*4
	if len(buf) < need {
		return fmt.Errorf("cubesketch: truncated body: have %d bytes, need %d", len(buf), need)
	}
	s.n, s.seed, s.cols, s.rows = n, seed, cols, rows
	s.hashSeed = hashSeed(seed)
	s.alphas = make([]uint64, cols*rows)
	s.gammas = make([]uint32, cols*rows)
	getBody(s.alphas, s.gammas, buf[headerSize:need])
	s.updates = 0
	return nil
}

// CorruptBucket flips bits in one bucket; used by failure-injection tests
// to confirm the checksum rejects damaged buckets.
func (s *Sketch) CorruptBucket(col, row int, alphaMask uint64, gammaMask uint32) {
	i := col*s.rows + row
	s.alphas[i] ^= alphaMask
	s.gammas[i] ^= gammaMask
}
