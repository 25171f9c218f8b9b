// Package core implements the GraphZeppelin engine (Section 5): per-node
// sketches made of one CubeSketch per Boruvka round, the sharded buffered
// ingestion pipeline (gutters → per-shard SPSC queues → shard-owning
// Graph Workers over contiguous sketch arenas), and the query path that
// recovers a spanning forest by emulating Boruvka's algorithm over the
// sketches.
package core

import (
	"flag"
	"fmt"
	"math/bits"
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
	// Range, when set, is the node range [Lo, Hi) this engine owns — one
	// gzserve worker's partition. Only the range gets sketch slots,
	// gutters and change stamps. Ingest buffers the endpoints inside the
	// range, counts an update once, at the owner of its lower endpoint,
	// and refuses a batch holding an update with neither endpoint inside
	// (ErrOutOfRange). Checkpoint sections carry only the range, and
	// queries fail with ErrRangeEngine. NumNodes stays the universe, so
	// the sketch geometry, the checkpoint header and every owned node's
	// sketch bytes equal a whole-universe engine's. The zero value (or
	// [0, NumNodes)) is the whole universe.
	Range NodeRange
	// Seed drives all sketch hashing. Engines with equal NumNodes,
	// Columns, Rounds and Seed have mergeable sketches.
	Seed uint64
	// Shards is the number of ingest shards, each applied by its own Graph
	// Worker goroutine (default 1, clamped to NumNodes). Node groups are
	// partitioned by group % Shards, a group being NodesPerGroup
	// consecutive nodes out of core and one node in RAM (so node % Shards
	// there). Each group is owned by one Graph Worker for
	// the engine's whole life, which is what lets the ingest path run
	// without any per-node locking.
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
	// Zero picks the 32 MiB default, and any positive budget keeps at
	// least one group per shard resident; negative is an error. Ignored
	// in RAM mode. After construction, Engine.Config() reports the
	// effective value.
	CacheBytes int64
	// Dir is the directory for disk files (sketch store, gutter tree).
	// Empty means in-memory devices are used even for "disk" structures,
	// which still exercises the block I/O paths and accounting.
	Dir string
	// Tree sizes the gutter tree when Buffering == BufferTree.
	Tree gutter.TreeConfig
	// BlockSize is the device block size in bytes (default 16 KiB).
	BlockSize int
	// NoDeltaQuery disables incremental query maintenance. By default a
	// full query whose previous result is still cached reuses that forest:
	// only the components containing nodes whose sketches changed since
	// (the per-node change stamps the apply path writes) are re-solved
	// from sketches, and the untouched components' forest edges carry
	// over. With it set, every cache miss runs the from-scratch parallel
	// Boruvka, the pre-incremental behavior (kept for ablation).
	NoDeltaQuery bool
	// DeltaCheckpointThreshold is the delta checkpoint fallback threshold:
	// SealCheckpointSince cuts a sparse delta checkpoint only while the
	// fraction of nodes changed since the base seal is at or below it —
	// above, the delta ships nearly a full checkpoint's bytes yet still
	// needs its base and every earlier link to restore, so the seal falls
	// back to a full checkpoint, which starts a new chain. The stall does
	// not enter into it: both kinds seal alike, copying no sketch. Zero
	// picks the 0.20 default; negative disables delta checkpoints entirely
	// (every seal is full, kept for ablation).
	DeltaCheckpointThreshold float64
	// DeviceFactory overrides block-device creation for the sketch store
	// and gutter tree. Nil uses files under Dir (or in-memory devices when
	// Dir is empty). Tests use it to inject faulty devices.
	DeviceFactory func(name string) (iomodel.Device, error)
	// WAL enables the write-ahead log: every accepted ingest batch is
	// appended (and, per WALFsync, synced) to a segmented log before it
	// enters the pipeline, so a crash loses at most the un-acked suffix
	// and RecoverChain rebuilds the engine from the latest checkpoint plus the
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
	if c.Range == (NodeRange{0, c.NumNodes}) {
		c.Range = NodeRange{}
	}
	if c.Range != (NodeRange{}) && (c.Range.Lo >= c.Range.Hi || c.Range.Hi > c.NumNodes) {
		return c, fmt.Errorf("core: Range [%d,%d) is not a nonempty range of %d nodes", c.Range.Lo, c.Range.Hi, c.NumNodes)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if _, n := c.owned(); uint32(c.Shards) > n {
		c.Shards = int(n)
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
	if c.BlockSize <= 0 {
		c.BlockSize = iomodel.DefaultBlockSize
	}
	if c.DeltaCheckpointThreshold == 0 {
		c.DeltaCheckpointThreshold = 0.20
	}
	if c.DeltaCheckpointThreshold > 1 {
		c.DeltaCheckpointThreshold = 1
	}
	if c.SketchesOnDisk {
		if c.CacheBytes < 0 {
			return c, fmt.Errorf("core: CacheBytes must not be negative with sketches on disk, got %d", c.CacheBytes)
		}
		if c.CacheBytes == 0 {
			c.CacheBytes = DefaultCacheBytes
		}
	}
	return c, nil
}

// RegisterFlags defines the engine flags the command-line tools share on
// fs, each writing straight into its Config field: -seed (default 1),
// -shards, -fsync, -fsync-interval, -wal-segment-bytes and
// -delta-threshold. Zero values keep the engine defaults.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&c.Seed, "seed", 1, "sketch seed (must match across engines whose sketches are merged)")
	fs.IntVar(&c.Shards, "shards", 0, "ingest shards, one Graph Worker each (0 = 1)")
	fs.Var(&c.WALFsync, "fsync", "WAL fsync policy: batch (the default), interval, off")
	fs.DurationVar(&c.WALFsyncInterval, "fsync-interval", 0, "WAL sync period for -fsync interval (0 = 50ms default)")
	fs.Int64Var(&c.WALSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = 8 MiB default)")
	fs.Float64Var(&c.DeltaCheckpointThreshold, "delta-threshold", 0, "dirty-node fraction above which a delta checkpoint seal falls back to full (0 = 0.20 default, negative disables delta checkpoints)")
}

// NodeRange is a half-open node-id range [Lo, Hi).
type NodeRange struct{ Lo, Hi uint32 }

// owned returns the first node the engine owns and how many it owns.
func (c Config) owned() (lo, n uint32) {
	if c.Range == (NodeRange{}) {
		return 0, c.NumNodes
	}
	return c.Range.Lo, c.Range.Hi - c.Range.Lo
}

// DefaultCacheBytes is the write-back cache budget used when
// Config.CacheBytes is zero in disk mode.
const DefaultCacheBytes = 32 << 20

// Engine constants: values the engine fixes rather than exposes, since
// no caller ever needed a second one.
const (
	// queueSlotsPerShard bounds each shard's SPSC queue between the
	// buffering stage and its Graph Worker, in batches: §5.1's work queue
	// of 8 × workers, split evenly across the shards.
	queueSlotsPerShard = 8
	// deltaQueryMaxDirtyFrac is the incremental query's fallback
	// threshold: when more than this fraction of nodes is dirty, the delta
	// path would re-solve most of the graph anyway while paying its extra
	// bookkeeping, so the query runs from scratch instead.
	deltaQueryMaxDirtyFrac = 0.10
	// queryScanBytes is the target size of one sequential ReadRange the
	// disk-mode query scan issues: each Boruvka round reads the still-live
	// stretch of the sketch store in chunks of this many bytes instead of
	// one point read per node (Lemma 5's sequential scan).
	queryScanBytes = 1 << 20
)

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
