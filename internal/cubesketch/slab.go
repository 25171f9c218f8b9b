package cubesketch

import (
	"encoding/binary"
	"fmt"
)

// Slab is an arena backing the sketches of a group of nodes: one
// contiguous pair of bucket arrays holds every (node, round) sketch, laid
// out node-major so that applying a batch to all rounds of one node is a
// sequential memory traversal and (de)serializing a node is a
// bounds-checked copy rather than a per-sketch marshal loop.
//
// Every node in a slab shares the same vector length and column count, and
// every node's round-r sketch shares the round-r seed, so views from two
// slabs built with identical parameters are mergeable (the supernode
// summing of Boruvka emulation).
//
// A Slab is not safe for concurrent use; the engine gives each ingest
// shard exclusive ownership of one slab.
type Slab struct {
	n        uint64
	cols     int
	rows     int
	rounds   int
	nodes    int
	seeds    []uint64 // per-round sketch seeds
	colSeeds []uint64 // rounds × cols hash seeds, round-major like the arena
	stride   int      // buckets per sketch = cols*rows
	alphas   []uint64 // nodes × rounds × stride
	gammas   []uint32 // parallel to alphas
}

// NewSlab allocates an arena for nodes node sketches of len(seeds) rounds
// each, over vectors of length n with the given column count. seeds[r] is
// the shared seed of every node's round-r sketch. nodes may be zero (a
// shard that owns no nodes).
func NewSlab(nodes int, n uint64, cols int, seeds []uint64) *Slab {
	if n == 0 {
		panic("cubesketch: vector length must be positive")
	}
	if cols <= 0 {
		cols = DefaultColumns
	}
	rows := NumRows(n)
	sl := &Slab{n: n, cols: cols, rows: rows, stride: cols * rows}
	sl.Reshape(nodes, seeds)
	return sl
}

// Reshape re-forms the slab as a zeroed arena of nodes stacks with one
// round per seed, over the same vector length and column count. The
// bucket arrays are kept when they are large enough and only the part the
// new shape uses is cleared, so an arena that is re-formed again and again
// (the engine's per-round supernode arena) is allocated once, at its
// largest shape. Views taken before the call are invalid after it.
func (sl *Slab) Reshape(nodes int, seeds []uint64) {
	if nodes < 0 {
		panic(fmt.Sprintf("cubesketch: negative slab node count %d", nodes))
	}
	if len(seeds) == 0 {
		panic("cubesketch: slab needs at least one round seed")
	}
	sl.nodes, sl.rounds = nodes, len(seeds)
	sl.seeds = append(sl.seeds[:0], seeds...)
	sl.colSeeds = sl.colSeeds[:0]
	for _, seed := range seeds {
		sl.colSeeds = appendColSeeds(sl.colSeeds, seed, sl.cols)
	}
	need := nodes * sl.rounds * sl.stride
	if cap(sl.alphas) < need {
		sl.alphas = make([]uint64, need)
		sl.gammas = make([]uint32, need)
		return
	}
	sl.alphas, sl.gammas = sl.alphas[:need], sl.gammas[:need]
	clear(sl.alphas)
	clear(sl.gammas)
}

// Narrow keeps the first rounds rounds of every stack, in place, and
// re-forms the slab as nodes stacks of that depth: stack i keeps its index,
// and stacks past the current count start zeroed. It never allocates, so
// the new shape must fit the bucket arrays' capacity; rounds must not
// exceed the current depth. Views taken before the call are invalid after
// it.
func (sl *Slab) Narrow(nodes, rounds int) {
	need := nodes * rounds * sl.stride
	if rounds < 1 || rounds > sl.rounds || nodes < 0 || need > cap(sl.alphas) {
		panic(fmt.Sprintf("cubesketch: cannot narrow %d stacks of %d rounds to %d of %d", sl.nodes, sl.rounds, nodes, rounds))
	}
	keep, old, run := min(nodes, sl.nodes), sl.rounds*sl.stride, rounds*sl.stride
	for i := 1; i < keep; i++ {
		copy(sl.alphas[i*run:(i+1)*run], sl.alphas[i*old:i*old+run])
		copy(sl.gammas[i*run:(i+1)*run], sl.gammas[i*old:i*old+run])
	}
	sl.alphas, sl.gammas = sl.alphas[:need], sl.gammas[:need]
	clear(sl.alphas[keep*run:])
	clear(sl.gammas[keep*run:])
	sl.nodes, sl.rounds = nodes, rounds
	sl.seeds = sl.seeds[:rounds]
	sl.colSeeds = sl.colSeeds[:rounds*sl.cols]
}

// ClearNode zeroes every round of node's stack.
func (sl *Slab) ClearNode(node int) {
	per := sl.rounds * sl.stride
	clear(sl.alphas[node*per : (node+1)*per])
	clear(sl.gammas[node*per : (node+1)*per])
}

// Nodes returns the number of node sketches the slab holds.
func (sl *Slab) Nodes() int { return sl.nodes }

// Rounds returns the per-node sketch depth.
func (sl *Slab) Rounds() int { return sl.rounds }

// Bytes returns the in-RAM size of the slab's bucket arrays.
func (sl *Slab) Bytes() int { return len(sl.alphas)*8 + len(sl.gammas)*4 }

// View points s at the (node, round) sketch without copying: mutations
// through s write the slab. The view's slices are capacity-clamped so it
// cannot touch a neighboring sketch.
func (sl *Slab) View(node, round int, s *Sketch) {
	off := (node*sl.rounds + round) * sl.stride
	end := off + sl.stride
	s.n = sl.n
	s.cols = sl.cols
	s.rows = sl.rows
	s.seed = sl.seeds[round]
	s.colSeeds = sl.colSeeds[round*sl.cols : (round+1)*sl.cols]
	s.alphas = sl.alphas[off:end:end]
	s.gammas = sl.gammas[off:end:end]
	s.updates = 0
}

// CloneSketch returns an independent deep copy of the (node, round)
// sketch, usable after the slab itself is mutated (query snapshots).
func (sl *Slab) CloneSketch(node, round int) *Sketch {
	var v Sketch
	sl.View(node, round, &v)
	return v.Clone()
}

// MergeNodeBinary XOR-combines a serialized node stack (the MarshalNode
// format: one serialized sketch per round) into node's sketches in place,
// with zero allocations. Every round's serialized header must match the
// slab's parameters and that round's seed. It is the RAM-mode slot-merge
// path of checkpoint merging.
func (sl *Slab) MergeNodeBinary(node int, buf []byte) error {
	if len(buf) < sl.NodeSize() {
		return fmt.Errorf("cubesketch: slab node blob is %d bytes, need %d", len(buf), sl.NodeSize())
	}
	var v Sketch
	size := sl.SketchSize()
	off := 0
	for r := 0; r < sl.rounds; r++ {
		sl.View(node, r, &v)
		if err := v.MergeBinary(buf[off : off+size]); err != nil {
			return fmt.Errorf("cubesketch: merging round %d: %w", r, err)
		}
		off += size
	}
	return nil
}

// MergeRounds XOR-combines count consecutive rounds of src's srcNode,
// from srcRound on, into node's rounds from round on. The slabs must share
// vector length and column count, and each pair of rounds its seed. A
// node's rounds are adjacent in the arena, so the whole run is one XOR per
// bucket array — how the engine's query sums a cached group's sketches
// into a supernode's look-ahead rounds, and folds one supernode's into
// another's (src may be sl itself, for two different nodes).
func (sl *Slab) MergeRounds(node, round int, src *Slab, srcNode, srcRound, count int) error {
	if sl.n != src.n || sl.cols != src.cols {
		return fmt.Errorf("cubesketch: incompatible slabs (n=%d/%d cols=%d/%d)", sl.n, src.n, sl.cols, src.cols)
	}
	if count < 0 || round < 0 || srcRound < 0 || round+count > sl.rounds || srcRound+count > src.rounds {
		return fmt.Errorf("cubesketch: rounds [%d,%d) of %d from rounds [%d,%d) of %d",
			round, round+count, sl.rounds, srcRound, srcRound+count, src.rounds)
	}
	for j := 0; j < count; j++ {
		if sl.seeds[round+j] != src.seeds[srcRound+j] {
			return fmt.Errorf("cubesketch: round %d seed %#x does not match source round %d seed %#x",
				round+j, sl.seeds[round+j], srcRound+j, src.seeds[srcRound+j])
		}
	}
	d := (node*sl.rounds + round) * sl.stride
	s := (srcNode*src.rounds + srcRound) * src.stride
	run := count * sl.stride
	xorBuckets(sl.alphas[d:d+run], src.alphas[s:s+run], sl.gammas[d:d+run], src.gammas[s:s+run])
	return nil
}

// Apply toggles every index in batch in all rounds of node's sketch. The
// node's rounds are adjacent in the arena, so they are one run of
// rounds × cols columns to the bucket-XOR kernel (xorBatch), which picks
// its regime by len(batch). The result is bucket-identical to applying
// each update individually, because XOR accumulation commutes. An
// out-of-range index panics before the slab is touched.
//
// All scratch is per-call, so concurrent Apply calls on *distinct* nodes
// of the same slab are safe: they write disjoint arena ranges. Concurrent
// calls on the same node race; the engine gives every node one applying
// worker.
func (sl *Slab) Apply(node int, batch []uint64) {
	per := sl.rounds * sl.stride
	off := node * per
	xorBatch(sl.n, sl.rows, sl.colSeeds, sl.alphas[off:off+per], sl.gammas[off:off+per], batch)
}

// SketchSize returns the serialized size of one round's sketch.
func (sl *Slab) SketchSize() int { return 8*4 + sl.stride*8 + sl.stride*4 }

// NodeSize returns the serialized size of one node's full sketch stack:
// the slot format of the disk store and the checkpoint codec.
func (sl *Slab) NodeSize() int { return sl.rounds * sl.SketchSize() }

// MarshalNode serializes all rounds of node into buf, which must be at
// least NodeSize() bytes, in the same format as Sketch.MarshalInto applied
// round by round. It returns the number of bytes written and performs no
// allocation.
func (sl *Slab) MarshalNode(node int, buf []byte) int {
	var v Sketch
	off := 0
	for r := 0; r < sl.rounds; r++ {
		sl.View(node, r, &v)
		off += v.MarshalInto(buf[off:])
	}
	return off
}

// MarshalNodes serializes the count consecutive node stacks starting at
// node into buf (at least count × NodeSize() bytes) and returns the bytes
// written. It is the group-granular spill path of the disk tier's
// write-back cache: one call turns a decoded node group back into the
// exact byte range its group slot holds, with no allocation.
func (sl *Slab) MarshalNodes(node, count int, buf []byte) int {
	off := 0
	for j := 0; j < count; j++ {
		off += sl.MarshalNode(node+j, buf[off:])
	}
	return off
}

// UnmarshalNodes replaces the count consecutive node stacks starting at
// node with the serialized group in buf (count × NodeSize() bytes),
// validating every round header. It is the group-granular fill path of
// the write-back cache: one device read decodes into a reused arena with
// no allocation.
func (sl *Slab) UnmarshalNodes(node, count int, buf []byte) error {
	if len(buf) < count*sl.NodeSize() {
		return fmt.Errorf("cubesketch: slab group blob is %d bytes, need %d", len(buf), count*sl.NodeSize())
	}
	size := sl.NodeSize()
	for j := 0; j < count; j++ {
		if err := sl.UnmarshalNode(node+j, buf[j*size:(j+1)*size]); err != nil {
			return fmt.Errorf("cubesketch: group node %d: %w", node+j, err)
		}
	}
	return nil
}

// UnmarshalNode replaces all rounds of node with the serialized stack in
// buf, validating that every round's header matches the slab's parameters.
// It performs no allocation, making it the zero-garbage decode path for
// disk-resident sketches.
func (sl *Slab) UnmarshalNode(node int, buf []byte) error {
	if len(buf) < sl.NodeSize() {
		return fmt.Errorf("cubesketch: slab node blob is %d bytes, need %d", len(buf), sl.NodeSize())
	}
	off, size := 0, sl.SketchSize()
	for r := 0; r < sl.rounds; r++ {
		n := binary.LittleEndian.Uint64(buf[off:])
		seed := binary.LittleEndian.Uint64(buf[off+8:])
		cols := int(binary.LittleEndian.Uint64(buf[off+16:]))
		rows := int(binary.LittleEndian.Uint64(buf[off+24:]))
		if n != sl.n || seed != sl.seeds[r] || cols != sl.cols || rows != sl.rows {
			return fmt.Errorf("cubesketch: round %d header (n=%d seed=%#x cols=%d rows=%d) does not match slab (n=%d seed=%#x cols=%d rows=%d)",
				r, n, seed, cols, rows, sl.n, sl.seeds[r], sl.cols, sl.rows)
		}
		base := (node*sl.rounds + r) * sl.stride
		getBody(sl.alphas[base:base+sl.stride], sl.gammas[base:base+sl.stride], buf[off+headerSize:off+size])
		off += size
	}
	return nil
}
