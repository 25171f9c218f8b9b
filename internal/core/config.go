// Package core implements the GraphZeppelin engine (Section 5): per-node
// sketches made of one CubeSketch per Boruvka round, the sharded buffered
// ingestion pipeline (gutters → per-shard SPSC queues → shard-owning
// Graph Workers over contiguous sketch arenas), and the query path that
// recovers a spanning forest by emulating Boruvka's algorithm over the
// sketches.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// BufferingKind selects the ingestion buffering structure.
type BufferingKind int

const (
	// BufferLeaf uses in-RAM leaf-only gutters (the default; used when
	// RAM is plentiful, M > V·B in the paper's terms).
	BufferLeaf BufferingKind = iota
	// BufferTree uses the disk-backed gutter tree.
	BufferTree
	// BufferNone applies every update synchronously with no batching;
	// the f→0 extreme of Figure 15, useful for tests and ablations.
	BufferNone
)

// String names the buffering kind.
func (k BufferingKind) String() string {
	switch k {
	case BufferLeaf:
		return "leaf-only"
	case BufferTree:
		return "gutter-tree"
	case BufferNone:
		return "unbuffered"
	default:
		return fmt.Sprintf("BufferingKind(%d)", int(k))
	}
}

// Config parameterizes an Engine. Zero values get the defaults noted on
// each field.
type Config struct {
	// NumNodes is the (upper bound on the) number of graph nodes; node
	// ids in updates must be < NumNodes. Required.
	NumNodes uint32
	// Seed drives all sketch hashing. Engines with equal NumNodes,
	// Columns, Rounds and Seed have mergeable sketches.
	Seed uint64
	// Workers seeds the default shard count (default 1). The engine runs
	// one Graph Worker goroutine per shard, so with Shards unset this is
	// the number of Graph Workers, as in the seed design.
	Workers int
	// Shards is the number of ingest shards (default Workers, clamped to
	// NumNodes). Nodes are partitioned by node % Shards (out of core, whole
	// disk groups by group % Shards); each shard's sketches are owned
	// exclusively by one Graph Worker, which is what lets the ingest path
	// run without any per-node locking.
	Shards int
	// Columns is the per-CubeSketch column count (default 7, §5.1).
	Columns int
	// Rounds is the number of CubeSketches per node sketch, one per
	// Boruvka round (default ⌈log2 NumNodes⌉ + 2).
	Rounds int
	// Buffering selects the buffering structure (default BufferLeaf).
	Buffering BufferingKind
	// BufferFactor is the paper's f: each leaf gutter holds
	// f × (node-sketch bytes) of buffered updates (default 0.5, §5.1).
	BufferFactor float64
	// GutterStripes is the number of lock stripes partitioning the leaf
	// gutters for concurrent producers (default max(Shards, GOMAXPROCS)).
	// Purely a contention knob: correctness does not depend on it.
	GutterStripes int
	// SketchesOnDisk stores node sketches on a block device instead of
	// RAM (the out-of-core mode of §4.1).
	SketchesOnDisk bool
	// NodesPerGroup is the node-group cardinality of the on-disk sketch
	// layout (§4.1): the store is accessed in group slots of this many
	// consecutive node sketches, leaf-gutter flushes align to the same
	// groups, and the write-back cache holds decoded groups. Zero picks
	// the paper's sizing — as many node sketches as fit a device block,
	// clamped to [1, 256]. Ignored in RAM mode. After construction,
	// Engine.Config() reports the effective value.
	NodesPerGroup int
	// CacheBytes budgets the sharded write-back cache of decoded sketch
	// groups in disk mode: batches apply to cached groups in RAM and
	// dirty groups are written back as one coalesced device access on
	// eviction or flush, so steady-state ingest I/O drops from one slot
	// round trip per batch to one group round trip per cache residency.
	// Zero picks the 32 MiB default; negative disables the cache entirely
	// (every batch pays the per-slot read–decode–apply–encode–write round
	// trip — the pre-cache behavior, kept for ablation). Ignored in RAM
	// mode. After construction, Engine.Config() reports the effective
	// value.
	CacheBytes int64
	// Dir is the directory for disk files (sketch store, gutter tree).
	// Empty means in-memory devices are used even for "disk" structures,
	// which still exercises the block I/O paths and accounting.
	Dir string
	// Tree sizes the gutter tree when Buffering == BufferTree.
	Tree gutter.TreeConfig
	// BlockSize is the device block size in bytes (default 16 KiB).
	BlockSize int
	// QueueCapacity bounds the total work queued between the buffering
	// stage and the Graph Workers, in batches, spread evenly across the
	// per-shard queues (default 8 × Shards, §5.1's 8 × Workers). Each
	// shard keeps a floor of one slot, so values below Shards are
	// effectively raised to Shards.
	QueueCapacity int
	// NoRebalance disables the skew-aware shard rebalancer. By default
	// (with more than one shard) a background policy goroutine watches
	// per-slice push rates and per-shard queue backlogs and migrates hot
	// node slices from overloaded shards to underloaded ones, so a skewed
	// stream no longer serializes behind one Graph Worker. Rebalancing
	// moves only the *processing* assignment — sketch storage stays at the
	// static node % Shards home, so query and checkpoint layouts are
	// unchanged.
	NoRebalance bool
	// RebalanceInterval is the policy tick period (default 2ms). Each tick
	// compares per-shard loads over the previous tick window and performs
	// at most a few slice migrations.
	RebalanceInterval time.Duration
	// RebalanceFactor is the imbalance trigger: a migration is considered
	// only when the hottest shard's load exceeds this multiple of the mean
	// (default 1.25).
	RebalanceFactor float64
	// SlicesPerShard is the granularity of the dynamic node→shard
	// processing assignment: the node space is split into
	// Shards × SlicesPerShard slices (by node modulo), each independently
	// routable to any shard (default 16). More slices mean finer-grained
	// rebalancing at slightly more routing state.
	SlicesPerShard int
	// NoDeltaQuery disables incremental query maintenance. By default a
	// full query whose previous result is still cached reuses that forest:
	// only the components containing nodes whose sketches changed since
	// (tracked in per-shard dirty vectors on the apply path) are re-solved
	// from sketches, and the untouched components' forest edges carry
	// over. With it set, every cache miss runs the from-scratch parallel
	// Boruvka, the pre-incremental behavior (kept for ablation).
	NoDeltaQuery bool
	// DeltaQueryMaxDirtyFrac is the incremental query's fallback
	// threshold: when more than this fraction of nodes is dirty, the delta
	// path would re-solve most of the graph anyway while paying its extra
	// bookkeeping, so the query runs from scratch instead (default 0.10).
	DeltaQueryMaxDirtyFrac float64
	// DeltaCheckpointThreshold is the delta checkpoint fallback threshold:
	// SealCheckpointSince cuts a sparse delta checkpoint only while the
	// fraction of nodes dirtied since the base seal is at or below it —
	// above, the delta saves little and its slots, copied inside the seal
	// stall, lengthen it, so the seal falls back to a full checkpoint
	// (captured with ingestion live). Zero picks
	// the 0.20 default; negative disables delta checkpoints entirely
	// (every seal is full, kept for ablation).
	DeltaCheckpointThreshold float64
	// QueryScanBytes is the target size of one sequential ReadRange the
	// disk-mode query scan issues (default 1 MiB): each Boruvka round
	// reads the still-live stretch of the sketch store in chunks of this
	// many bytes instead of one point read per node (Lemma 5's sequential
	// scan). Larger values mean fewer, bigger reads.
	QueryScanBytes int
	// DeviceFactory overrides block-device creation for the sketch store
	// and gutter tree. Nil uses files under Dir (or in-memory devices when
	// Dir is empty). Tests use it to inject faulty devices.
	DeviceFactory func(name string) (iomodel.Device, error)
	// WAL enables the write-ahead log: every accepted ingest batch is
	// appended (and, per WALFsync, synced) to a segmented log before it
	// enters the pipeline, so a crash loses at most the un-acked suffix
	// and Recover rebuilds the engine from the latest checkpoint plus the
	// log (wal.go, recover.go).
	WAL bool
	// WALDir is the segment directory (default Dir+"/wal"; with Dir empty
	// the log lives on in-memory power-cut devices, which still exercises
	// the full append/replay machinery).
	WALDir string
	// WALStorage overrides the segment storage outright (tests inject
	// power-cut storage through this). Non-nil wins over WALDir.
	WALStorage wal.Storage
	// WALSegmentBytes is the segment rotation threshold (default 8 MiB).
	WALSegmentBytes int64
	// WALFsync picks the log's durability discipline: FsyncBatch (default;
	// an ingest return implies the batch is on stable storage),
	// FsyncInterval (synced by a background timer, losing at most
	// WALFsyncInterval on a crash), or FsyncOff.
	WALFsync wal.FsyncPolicy
	// WALFsyncInterval is the FsyncInterval period (default 50ms).
	WALFsyncInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.NumNodes < 2 {
		return c, fmt.Errorf("core: NumNodes must be at least 2, got %d", c.NumNodes)
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Shards <= 0 {
		c.Shards = c.Workers
	}
	if uint32(c.Shards) > c.NumNodes {
		c.Shards = int(c.NumNodes)
	}
	if c.Columns <= 0 {
		c.Columns = cubesketch.DefaultColumns
	}
	if c.Rounds <= 0 {
		c.Rounds = DefaultRounds(c.NumNodes)
	}
	if c.BufferFactor <= 0 {
		c.BufferFactor = 0.5
	}
	if c.GutterStripes <= 0 {
		c.GutterStripes = c.Shards
		if p := runtime.GOMAXPROCS(0); p > c.GutterStripes {
			c.GutterStripes = p
		}
	}
	if c.BlockSize <= 0 {
		c.BlockSize = iomodel.DefaultBlockSize
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 8 * c.Shards
	}
	if c.QueryScanBytes <= 0 {
		c.QueryScanBytes = 1 << 20
	}
	if c.DeltaQueryMaxDirtyFrac <= 0 {
		c.DeltaQueryMaxDirtyFrac = 0.10
	}
	if c.DeltaQueryMaxDirtyFrac > 1 {
		c.DeltaQueryMaxDirtyFrac = 1
	}
	if c.DeltaCheckpointThreshold == 0 {
		c.DeltaCheckpointThreshold = 0.20
	}
	if c.DeltaCheckpointThreshold > 1 {
		c.DeltaCheckpointThreshold = 1
	}
	if c.RebalanceInterval <= 0 {
		c.RebalanceInterval = 2 * time.Millisecond
	}
	if c.RebalanceFactor <= 1 {
		c.RebalanceFactor = 1.25
	}
	if c.SlicesPerShard <= 0 {
		c.SlicesPerShard = 16
	}
	return c, nil
}

// DefaultCacheBytes is the write-back cache budget used when
// Config.CacheBytes is zero in disk mode.
const DefaultCacheBytes = 32 << 20

// DefaultRounds returns the node-sketch depth for a graph on numNodes
// nodes: ⌈log2 numNodes⌉ + 2 Boruvka rounds, enough that the forest is
// complete with slack before sketches run out.
func DefaultRounds(numNodes uint32) int {
	if numNodes <= 2 {
		return 3
	}
	return bits.Len32(numNodes-1) + 2
}

// VectorLen returns the characteristic-vector length for the config.
func (c Config) VectorLen() uint64 { return stream.VectorLen(uint64(c.NumNodes)) }
