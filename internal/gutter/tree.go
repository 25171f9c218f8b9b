package gutter

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// TreeConfig sizes a gutter tree. The zero value gets usable defaults
// scaled to this reproduction's graph sizes; the paper's production
// numbers (8 MB internal buffers, fan-out 512, 16 KB write blocks) are
// reachable by setting the fields explicitly.
type TreeConfig struct {
	// Fanout is the number of children per internal vertex (paper: 512).
	Fanout int
	// BufferRecords is the capacity of the root and each internal buffer
	// in 8-byte update records (paper: 8 MB / 8 B = 1M records).
	BufferRecords int
	// LeafRecords is the capacity of each leaf gutter in records
	// (paper: twice the node-sketch size).
	LeafRecords int
	// NodesPerLeaf is the node-group cardinality per leaf gutter
	// (paper: max{1, B/log³V}; 1 for all but tiny sketches).
	NodesPerLeaf int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.Fanout < 2 {
		c.Fanout = 8
	}
	if c.BufferRecords < 1 {
		c.BufferRecords = 4096
	}
	if c.LeafRecords < 1 {
		c.LeafRecords = 256
	}
	if c.NodesPerLeaf < 1 {
		c.NodesPerLeaf = 1
	}
	return c
}

type record struct {
	node, other uint32
}

const recordBytes = 8

type treeNode struct {
	leafLo, leafHi int   // covered leaf-index range [lo, hi)
	children       []int // indices into Tree.nodes; nil for leaves
	offset         int64 // file offset of this vertex's region
	capRecords     int
	fill           int // records currently stored in the region
}

// Tree is the gutter tree of Section 4.1: a simplified buffer tree whose
// internal vertices buffer update records on a block device and whose leaf
// gutters, one per node group, emit node-keyed batches to the sink when
// they fill. Data never persists in leaves across a flush, so no
// rebalancing is needed. Concurrent producers are serialized by one tree
// mutex: the tree's throughput is bounded by its block device, so finer
// locking would buy nothing, and InsertEdges amortizes the lock over a
// whole batch.
type Tree struct {
	cfg       TreeConfig
	numNodes  uint32
	numLeaves int
	dev       iomodel.Device
	sink      Sink
	mu        sync.Mutex // guards nodes/root/scratch and all device traffic
	nodes     []treeNode
	region    int64    // total pre-allocated device footprint in bytes
	root      []record // the root buffer lives in RAM
	scratch   []byte
	free      freelist
	buffered  atomic.Uint64
	flushes   atomic.Uint64
}

// NewTree builds a gutter tree over numNodes graph nodes on dev. The
// device region layout is computed up front (the paper pre-allocates the
// gutter tree's disk space the same way).
func NewTree(numNodes uint32, cfg TreeConfig, dev iomodel.Device, sink Sink) (*Tree, error) {
	cfg = cfg.withDefaults()
	if numNodes == 0 {
		return nil, fmt.Errorf("gutter: tree needs at least one node")
	}
	t := &Tree{
		cfg:       cfg,
		numNodes:  numNodes,
		numLeaves: (int(numNodes) + cfg.NodesPerLeaf - 1) / cfg.NodesPerLeaf,
		dev:       dev,
		sink:      sink,
		root:      make([]record, 0, cfg.BufferRecords),
	}
	t.build(0, t.numLeaves, true)
	// Assign file offsets: internal regions first, then leaf regions.
	var off int64
	for i := range t.nodes {
		if t.nodes[i].children != nil {
			t.nodes[i].offset = off
			off += int64(t.nodes[i].capRecords) * recordBytes
		}
	}
	for i := range t.nodes {
		if t.nodes[i].children == nil {
			t.nodes[i].offset = off
			off += int64(t.nodes[i].capRecords) * recordBytes
		}
	}
	maxCap := cfg.BufferRecords
	if cfg.LeafRecords > maxCap {
		maxCap = cfg.LeafRecords
	}
	t.scratch = make([]byte, (maxCap+cfg.BufferRecords)*recordBytes)
	// Pre-allocate the tree's full region, as the paper's implementation
	// does on initialization (§5.1): one write at the end sizes the file
	// so later region writes never extend it.
	if off > 0 {
		if _, err := dev.WriteAt([]byte{0}, off-1); err != nil {
			return nil, fmt.Errorf("gutter: preallocating tree regions: %w", err)
		}
	}
	t.region = off
	return t, nil
}

// TotalBytes returns the tree's pre-allocated on-device footprint — the
// sum of every internal buffer and leaf region. The engine adds it to
// Stats.DiskBytes alongside the sketch store.
func (t *Tree) TotalBytes() int64 { return t.region }

// build creates the subtree covering leaf range [lo, hi) and returns its
// index in t.nodes. isRoot marks the top call: the root's records live in
// RAM, but it still gets a treeNode for uniform routing.
func (t *Tree) build(lo, hi int, isRoot bool) int {
	idx := len(t.nodes)
	n := treeNode{leafLo: lo, leafHi: hi}
	t.nodes = append(t.nodes, n)
	if hi-lo <= 1 && !isRoot {
		t.nodes[idx].capRecords = t.cfg.LeafRecords
		return idx
	}
	t.nodes[idx].capRecords = t.cfg.BufferRecords
	span := hi - lo
	chunk := (span + t.cfg.Fanout - 1) / t.cfg.Fanout
	if chunk < 1 {
		chunk = 1
	}
	var children []int
	for c := lo; c < hi; c += chunk {
		end := c + chunk
		if end > hi {
			end = hi
		}
		children = append(children, t.build(c, end, false))
	}
	t.nodes[idx].children = children
	return idx
}

// insertLocked buffers the update (u, v) keyed by u. The caller holds mu.
func (t *Tree) insertLocked(u, v uint32) error {
	t.buffered.Add(1)
	t.root = append(t.root, record{node: u, other: v})
	if len(t.root) >= t.cfg.BufferRecords {
		recs := t.root
		t.root = t.root[:0]
		return t.distribute(0, recs, t.sink)
	}
	return nil
}

// Insert buffers the update (u, v) keyed by u.
func (t *Tree) Insert(u, v uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(u, v)
}

// InsertEdges buffers a batch of edge updates under one lock acquisition.
func (t *Tree) InsertEdges(edges []stream.Edge) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range edges {
		if err := t.insertLocked(e.U, e.V); err != nil {
			return err
		}
		if err := t.insertLocked(e.V, e.U); err != nil {
			return err
		}
	}
	return nil
}

// InsertHalves buffers each half (U, V) keyed by U under one lock
// acquisition.
func (t *Tree) InsertHalves(halves []stream.Edge) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range halves {
		if err := t.insertLocked(h.U, h.V); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) leafIndex(node uint32) int {
	return int(node) / t.cfg.NodesPerLeaf
}

// distribute routes records held by internal vertex n to its children,
// flushing children that would overflow; a leaf flushed on the way emits to
// sink.
func (t *Tree) distribute(n int, recs []record, sink Sink) error {
	node := &t.nodes[n]
	// Partition by child. Children cover contiguous leaf ranges of equal
	// chunk size, so the child index is computable in O(1).
	span := node.leafHi - node.leafLo
	chunk := (span + t.cfg.Fanout - 1) / t.cfg.Fanout
	if chunk < 1 {
		chunk = 1
	}
	recs, starts := sortByKey(recs, len(node.children), func(r record) int {
		return min((t.leafIndex(r.node)-node.leafLo)/chunk, len(node.children)-1)
	})
	for i, c := range node.children {
		if part := recs[starts[i]:starts[i+1]]; len(part) > 0 {
			if err := t.deliver(c, part, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortByKey returns recs reordered stably by key, which maps a record into
// [0, k), and where each key's records start: key j's are
// out[starts[j]:starts[j+1]]. A counting sort, O(len(recs) + k); with one
// key, recs already is the order.
func sortByKey(recs []record, k int, key func(record) int) (out []record, starts []int) {
	if k == 1 {
		return recs, []int{0, len(recs)}
	}
	starts = make([]int, k+1)
	for _, r := range recs {
		starts[key(r)+1]++
	}
	for j := 1; j <= k; j++ {
		starts[j] += starts[j-1]
	}
	// Placing a record advances its key's start to the next key's; shifting
	// them back one key restores where each starts.
	out = make([]record, len(recs))
	for _, r := range recs {
		j := key(r)
		out[starts[j]] = r
		starts[j]++
	}
	copy(starts[1:], starts[:k])
	starts[0] = 0
	return out, starts
}

// deliver appends records to child c's region, flushing as needed.
func (t *Tree) deliver(c int, part []record, sink Sink) error {
	child := &t.nodes[c]
	for len(part) > 0 {
		free := child.capRecords - child.fill
		take := len(part)
		if take > free {
			take = free
		}
		if take > 0 {
			if err := t.writeRegion(c, child.fill, part[:take]); err != nil {
				return err
			}
			child.fill += take
			part = part[take:]
		}
		if child.fill == child.capRecords {
			if err := t.flushVertex(c, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushVertex empties vertex c: internal vertices push their records one
// level down; leaves emit batches to sink.
func (t *Tree) flushVertex(c int, sink Sink) error {
	child := &t.nodes[c]
	if child.fill == 0 {
		return nil
	}
	recs, err := t.readRegion(c, child.fill)
	if err != nil {
		return err
	}
	child.fill = 0
	if child.children != nil {
		return t.distribute(c, recs, sink)
	}
	t.emitLeaf(recs, sink)
	return nil
}

// emitLeaf groups a leaf's records by destination node and emits one
// batch per node to sink, in ascending node order.
func (t *Tree) emitLeaf(recs []record, sink Sink) {
	npl := t.cfg.NodesPerLeaf
	first := uint32(t.leafIndex(recs[0].node) * npl)
	recs, starts := sortByKey(recs, npl, func(r record) int { return int(r.node - first) })
	for j := range npl {
		run := recs[starts[j]:starts[j+1]]
		if len(run) == 0 {
			continue
		}
		others := t.free.get(len(run))
		for _, r := range run {
			others = append(others, r.other)
		}
		sink(Batch{Node: run[0].node, Others: others})
		t.flushes.Add(1)
	}
}

// Recycle returns a flushed batch buffer for reuse by later leaf flushes.
func (t *Tree) Recycle(buf []uint32) { t.free.put(buf) }

// Close releases nothing: the device the tree writes to is owned (and
// closed) by the engine, which also reads its I/O statistics.
func (t *Tree) Close() error { return nil }

func (t *Tree) writeRegion(n, at int, recs []record) error {
	node := &t.nodes[n]
	buf := t.scratch[:len(recs)*recordBytes]
	for i, r := range recs {
		binary.LittleEndian.PutUint32(buf[i*8:], r.node)
		binary.LittleEndian.PutUint32(buf[i*8+4:], r.other)
	}
	_, err := t.dev.WriteAt(buf, node.offset+int64(at)*recordBytes)
	return err
}

func (t *Tree) readRegion(n, count int) ([]record, error) {
	node := &t.nodes[n]
	buf := t.scratch[:count*recordBytes]
	if _, err := t.dev.ReadAt(buf, node.offset); err != nil {
		return nil, err
	}
	recs := make([]record, count)
	for i := range recs {
		recs[i].node = binary.LittleEndian.Uint32(buf[i*8:])
		recs[i].other = binary.LittleEndian.Uint32(buf[i*8+4:])
	}
	return recs, nil
}

// Flush forces every buffered update out of the tree (the cleanup step
// before a connectivity query) to to[0], or to the built-in sink: the root
// spills, then every vertex is flushed top-down so leaves emit everything.
func (t *Tree) Flush(to ...Sink) error {
	sink := t.sink
	if len(to) > 0 {
		sink = to[0]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.root) > 0 {
		recs := t.root
		t.root = t.root[:0]
		if err := t.distribute(0, recs, sink); err != nil {
			return err
		}
	}
	// Top-down order guarantees parents empty before children flush.
	for i := range t.nodes {
		if i == 0 {
			continue // root buffer already spilled
		}
		if t.nodes[i].children != nil {
			if err := t.flushVertex(i, sink); err != nil {
				return err
			}
		}
	}
	for i := range t.nodes {
		if t.nodes[i].children == nil {
			if err := t.flushVertex(i, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// Buffered returns total updates inserted; Flushes the number of batches
// emitted to the sink.
func (t *Tree) Buffered() uint64 { return t.buffered.Load() }

// Flushes returns the number of batches emitted to the sink.
func (t *Tree) Flushes() uint64 { return t.flushes.Load() }

// Stats returns the underlying device's I/O statistics.
func (t *Tree) Stats() iomodel.Stats { return t.dev.Stats() }
