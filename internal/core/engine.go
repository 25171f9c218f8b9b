package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/bitset"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/diskstore"
	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// roundSeedSalt separates the hash seeds of the per-round CubeSketches;
// every node's round-r sketch shares a seed so supernode merging works.
const roundSeedSalt = 0x51ed270693a3f

// ErrClosed is returned by Update, UpdateBatch, queries and checkpoint
// operations after the engine has been closed.
var ErrClosed = errors.New("core: engine is closed")

// Stats reports engine activity.
type Stats struct {
	// Updates is the number of stream updates ingested.
	Updates uint64
	// Batches is the number of node-keyed batches applied to sketches,
	// summed across shards.
	Batches uint64
	// Shards is the number of ingest shards (= Graph Workers), and
	// ShardBatches the per-shard batch counts *by executing worker*; a
	// skewed distribution means processing was unbalanced for this
	// stream. With rebalancing on, a skewed stream should still show a
	// near-flat ShardBatches because hot node slices migrate away from
	// the overloaded worker.
	Shards       int
	ShardBatches []uint64
	// Rebalances counts slice migrations performed by the skew-aware
	// rebalancer; ForeignBatches counts batches applied by a worker other
	// than the initial owner of the node's slice (i.e. work executed under
	// a migrated assignment). In RAM the initial owner is the node's
	// storage-home shard; out of core, where storage is one shared file, it
	// is the worker whose write-back cache shard the node's group faults
	// into. Both stay zero with rebalancing disabled.
	Rebalances     uint64
	ForeignBatches uint64
	// SketchIO and BufferIO are block-device statistics for the sketch
	// store and the gutter tree (zero when those live in RAM).
	SketchIO, BufferIO iomodel.Stats
	// SketchCache reports the disk-mode write-back cache of decoded
	// sketch groups: hits and misses count group lookups on the apply
	// path, evictions and write-backs count budget-driven spills, and the
	// residency fields give the cache's current RAM footprint (also
	// included in MemoryBytes). All zero in RAM mode or with the cache
	// disabled (CacheBytes < 0).
	SketchCache diskstore.CacheStats
	// QueryRounds is the Boruvka rounds used by the last full query.
	QueryRounds int
	// QueryCacheHits counts queries answered from the ingest-epoch cache
	// without snapshotting or re-running Boruvka: every
	// Connected/ConnectedMany/ConnectedComponents/SpanningForest call
	// issued while no new update batch has been applied since the last
	// full query is a hit.
	QueryCacheHits uint64
	// DeltaQueries counts full queries answered by the incremental path:
	// the cached forest of the previous query was reused, with only the
	// components touched by dirty nodes re-solved from sketches.
	// DeltaFallbacks counts queries that were delta-eligible (a cached
	// baseline existed) but ran the from-scratch path instead — the dirty
	// fraction exceeded DeltaQueryMaxDirtyFrac, a checkpoint merge dirtied
	// everything, or the delta rounds failed to certify (rare; the full
	// run is the correctness backstop).
	DeltaQueries, DeltaFallbacks uint64
	// DirtyNodes is the number of nodes whose sketches changed since the
	// last successfully cached query result (the union across shards'
	// dirty vectors; NumNodes after a checkpoint merge, which dirties
	// everything).
	DirtyNodes uint64
	// SketchFailures counts CubeSketch sampling failures observed across
	// all queries (§6.3 observed zero in 5000 trials; so do we, but we
	// count anyway).
	SketchFailures uint64
	// CheckpointStallNanos is how long the most recent WriteCheckpoint
	// excluded ingestion, in nanoseconds: the drain plus the snapshot seal
	// (RAM: shard-at-a-time slab copy; disk: installing the copy-on-write
	// capture). The stream write itself runs with ingestion live, so this
	// is bounded by drain + O(slab copy), not by writer bandwidth.
	CheckpointStallNanos uint64
	// DeltaCheckpoints counts seals that produced a sparse delta
	// checkpoint instead of a full one; DeltaCheckpointBytes and
	// FullCheckpointBytes accumulate the streamed sizes of each kind, so
	// the shipping savings of a delta chain are directly observable.
	DeltaCheckpoints     uint64
	DeltaCheckpointBytes uint64
	FullCheckpointBytes  uint64
	// LastCheckpointID is the chain id of the engine's current checkpoint
	// state — minted by the most recent seal, or carried by the most
	// recent restore/delta apply; LastCheckpointWALLSN is the WAL position
	// that state covers. Both zero before any checkpoint activity.
	LastCheckpointID     uint64
	LastCheckpointWALLSN uint64
	// MemoryBytes estimates the RAM held by sketches, gutters, the
	// write-back cache, the delta query's before-images (live and pooled)
	// and the queries' supernode arena (NumNodes single-round sketches,
	// counted at that size although the first query is what allocates it);
	// DiskBytes the on-device footprint (sketch slots + gutter tree).
	MemoryBytes, DiskBytes int64
	// WAL reports write-ahead-log activity (appends, bytes, fsyncs,
	// group commits, truncations, recovery scan results). All zero with
	// the WAL disabled.
	WAL wal.Stats
}

// Engine is a GraphZeppelin instance, safe for fully concurrent use: any
// number of goroutines may ingest (Update, UpdateBatch, InsertEdges)
// concurrently, and queries, checkpoints and Close may be issued from any
// goroutine — they quiesce the pipeline internally. Sketch application is
// parallelized across shard-owning Graph Workers.
//
// Sharded ingest pipeline: updates are buffered per destination node by a
// multi-producer gutter.Buffer; emitted batches are routed by node group
// (sliceOf; a group is one node in RAM) onto one SPSC queue per shard
// (pushes serialized by a per-shard mutex taken once per batch); and each
// shard's single Graph Worker owns its shard's sketches outright (an
// arena-backed cubesketch.Slab in RAM mode). In disk mode the workers share
// the tiered sketch store instead: batches apply to decoded node groups in
// a sharded write-back cache (diskstore.Cache, its own lock domain keyed by
// group — and until a migration each worker is the only one faulting
// groups into its shard of it), and the device sees only group-granular
// fills and coalesced dirty write-backs.
// Exclusive ownership replaces the seed design's per-node mutexes: the
// per-update path takes no engine-level lock beyond a read-lock on the
// quiesce RWMutex (and, batched, that cost is amortized across the whole
// batch). Quiescent phases (Drain, queries, Close) take the quiesce write
// lock, flush the buffer, and wait on the pending-batch WaitGroup;
// producers blocked on the read lock cannot race them. Checkpoint writes
// hold the write lock only long enough to drain and seal a snapshot, then
// stream with ingestion live (checkpoint.go).
type Engine struct {
	cfg        Config
	vecLen     uint64
	roundSeeds []uint64 // per round, shared by every node's sketch of it
	sketchSize int      // serialized bytes of one CubeSketch
	slotSize   int      // serialized bytes of one node sketch (all rounds)

	shards []*shard

	store    *diskstore.Store // non-nil in disk mode
	cache    *diskstore.Cache // non-nil in disk mode unless CacheBytes < 0
	npg      int              // nodes per disk group (1 in RAM mode)
	storeDev iomodel.Device

	buf     gutter.Buffer
	pending sync.WaitGroup
	wg      sync.WaitGroup

	// Skew-aware rebalancing state (rebalance.go). The node groups are dealt
	// round-robin into numSlices slices (sliceOf); assign maps each slice to
	// the shard currently *processing* its batches (RAM storage stays at the
	// static node % Shards home). slicePushes counts batches routed per
	// slice (the policy's load signal), migrations holds the in-flight
	// handoff record per slice, and the rebal* fields drive the policy
	// goroutine. rebalancing is false when the policy is off, in which
	// case assign never changes and the pipeline behaves exactly like the
	// static partition.
	numSlices   uint32
	assign      []atomic.Uint32
	slicePushes []atomic.Uint64
	migrations  []atomic.Pointer[migration]
	rebalancing bool
	rebalStop   chan struct{}
	rebalWG     sync.WaitGroup
	rebalances  atomic.Uint64

	// testApplyHook, when non-nil (tests only), brackets every batch
	// apply: it is called with the node before the apply and the returned
	// function after. The rebalancer tests use it to prove per-node apply
	// exclusivity across migrations.
	testApplyHook func(node uint32) func()

	// quiesce separates producers (read side: ingest entry points) from
	// quiescent phases (write side: drain, queries, checkpoints, close).
	// Holding the write lock with pending at zero means the workers are
	// idle and shard state may be read and written freely.
	quiesce sync.RWMutex

	leaf    *gutter.LeafGutters // non-nil iff Buffering == BufferLeaf
	tree    *gutter.Tree        // non-nil iff Buffering == BufferTree
	treeDev iomodel.Device

	// edgeScratch recycles the normalized-edge slices the batch ingest
	// path builds before handing them to the buffer.
	edgeScratch sync.Pool

	updates        atomic.Uint64
	sketchFailures atomic.Uint64
	lastRounds     atomic.Int64

	// epoch counts accepted ingest batches (and checkpoint merges): it is
	// bumped whenever the sketched graph may have changed. The query cache
	// is keyed on it — a query result tagged with the current epoch can be
	// served again without touching the sketches.
	epoch      atomic.Uint64
	queryCache atomic.Pointer[queryResult]
	cacheHits  atomic.Uint64

	// Incremental-query state (query.go). Each shard tracks, in a padded
	// single-writer bit vector, the nodes whose sketches its worker changed
	// since the last cached query; changes that bypass the batch path
	// (checkpoint merges, delta applies, node patches) mark the same
	// vectors through markChangedNode. They are cleared only when a query
	// result is cached, under the quiesce write lock with the workers idle
	// — a failed query (never cached) leaves them intact.
	// deltaQueries/deltaFallbacks back the Stats counters.
	deltaQueries   atomic.Uint64
	deltaFallbacks atomic.Uint64
	// What the delta path did, for tests to pin by count: components of the
	// cached partition handled per class (runDeltaBoruvka), and the longest
	// per-round contribution list of the last delta query.
	deltaClasses      [numDeltaClasses]atomic.Uint64
	lastDeltaContribs atomic.Int64
	// before maps each node first-dirtied since the last cached query to its
	// serialized pre-change sketch stack — the state that result observed,
	// which the delta query diffs the live sketches against (query.go).
	// beforeFree pools the buffers the last cached query handed back. Both
	// are guarded by beforeMu: any worker may register an image (a node's
	// first dirtying can execute anywhere under a migrated assignment), and
	// Stats reads their sizes; the filling of a registered buffer needs no
	// lock, since apply exclusivity gives the node one writer. beforeLimit
	// bounds images and pool alike, engine-wide (beforeImage).
	beforeMu    sync.Mutex
	before      map[uint32][]byte
	beforeFree  [][]byte
	beforeLimit int
	// queryArena holds the supernode sketches a Boruvka round sums, and out
	// of core the rounds a scan looked ahead (sampleRound). One serves every
	// query — they hold the quiesce write lock — re-formed per round inside
	// one allocation. The first query makes it (a construction that zeroes
	// it would pay for an engine that never queries), and no round asks for
	// more than NumNodes single-round sketches: queryArenaBytes, which Stats
	// counts from the start so that MemoryBytes does not step at that query.
	queryArena      *cubesketch.Slab
	queryArenaBytes int64

	// Checkpoint subsystem state (checkpoint.go). ckptMu serializes whole
	// checkpoint operations and orders strictly before the quiesce lock
	// (every path that needs both takes ckptMu first, including Close).
	// snap, when non-nil, is the copy-on-write capture of an in-flight
	// disk-mode snapshot that the workers feed pre-images into; snapSlabs
	// are the reusable RAM-mode seal arenas; ckptBuf pools section payload
	// buffers; lastCkptStall records the quiesce-held phase of the last
	// WriteCheckpoint for Stats.
	ckptMu        sync.Mutex
	snap          atomic.Pointer[ckptSnap]
	snapSlabs     []*cubesketch.Slab
	ckptBuf       sync.Pool
	lastCkptStall atomic.Int64
	cowBudget     int // 0 = checkpointCOWBudget; tests shrink it

	// Delta-checkpoint chain state (delta.go). chainTag is a random
	// per-lineage token minted at engine creation and adopted from the
	// envelope on restore: two engine incarnations can only chain to each
	// other's checkpoints when they share it, so a restarted worker that
	// re-mints the same small ids can never be mistaken for its previous
	// life. ckptSeq is the id of the engine's current checkpoint state
	// (last sealed, restored or delta-applied); ckptLSN the WAL position
	// that state covers. sealHist is a bounded ring of per-seal dirty-node
	// sets: a delta against base id b is the union of the records with
	// id > b, valid while b has not fallen below histFloor (the id of the
	// state preceding the oldest retained record). sealHist/histFloor are
	// guarded by ckptMu; the atomics feed Stats.
	chainTag     uint64
	ckptSeq      atomic.Uint64
	ckptLSN      atomic.Uint64
	sealHist     []sealRecord
	histFloor    uint64
	histFloorLSN uint64

	deltaCkpts     atomic.Uint64
	deltaCkptBytes atomic.Uint64
	fullCkptBytes  atomic.Uint64

	// Durability state (recover.go). log, when non-nil, is the write-ahead
	// log every accepted batch is appended to before buffering — the
	// commit point of the durable ingest path. loggedHook, when set, is
	// invoked with the batch's sequence number right after a successful
	// append, still under the quiesce read lock: a checkpoint seal (write
	// lock) therefore observes either neither the record nor the hook's
	// effect, or both — gzserve hangs its at-most-once gate commit here so
	// the gate snapshot in the checkpoint meta can never lag the covered
	// WAL position. ckptMeta, when set, supplies the opaque meta blob
	// sealed into each checkpoint. restoredWALPos/restoredMeta are what a
	// checkpoint restore found in its footer fields.
	log            *wal.Log
	loggedHook     func(seq uint64)
	ckptMeta       func() []byte
	restoredWALPos uint64
	restoredMeta   []byte

	workerErr atomic.Pointer[error]
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// shard is the state owned exclusively by one Graph Worker: the sketches
// of every node with node % Shards == id, the SPSC queue feeding it, and
// its scratch buffers. No other goroutine touches these fields while the
// worker runs; the driving goroutine reads them only in quiescent phases.
type shard struct {
	id    int
	queue *gutter.SPSC

	// pushMu serializes producers pushing onto this shard's queue,
	// preserving the SPSC single-producer contract with multiple ingest
	// goroutines. Taken once per emitted batch, not per update. Alone on
	// its cache line: producer lock traffic must not bounce the lines of
	// the worker-owned fields below (shards are allocated back to back
	// often enough for the padding to matter on both sides).
	pushMu sync.Mutex
	_      [gutter.CacheLine - 8]byte

	slab *cubesketch.Slab // RAM mode: this shard's node sketches

	// blob and scratch back the uncached disk path (CacheBytes < 0): a
	// slot read/write buffer and a single-node decode arena. With the
	// write-back cache enabled the apply path goes through the cache's
	// group arenas instead and these stay nil.
	blob    []byte
	scratch *cubesketch.Slab

	indices []uint64 // batch → characteristic-vector index scratch

	// dirty marks the nodes whose sketches this *executing* worker changed
	// since the last cached query (whole node universe, not just this
	// shard's storage slice: under a migrated assignment this worker
	// applies batches homed elsewhere, and two workers writing packed bits
	// of one shared home-shard vector would race on whole words). Single
	// writer (this worker), concurrent readers (Stats); cleared by queries
	// under the quiesce write lock with the workers idle. The Atomic's own
	// padding isolates its words; see bitset.NewAtomic.
	dirty *bitset.Atomic

	// dirtySeal marks, in the same whole-universe single-writer shape as
	// dirty, the nodes this worker changed since the last checkpoint seal.
	// Unlike dirty it is never touched by queries: it is captured into the
	// seal history and cleared only at seal time, under the quiesce write
	// lock with the workers idle, and feeds the sparse delta checkpoint
	// format (delta.go).
	dirtySeal *bitset.Atomic

	_ [gutter.CacheLine]byte

	// Worker-written counters, padded off the read-mostly fields above so
	// per-batch increments never invalidate a neighbor's hot line.
	batches atomic.Uint64 // batches applied by this worker
	foreign atomic.Uint64 // of those, batches of slices first assigned to another shard
	_       [gutter.CacheLine - 16]byte
}

// shardNodeCount returns how many of numNodes nodes land in shard s under
// the node % shards partition.
func shardNodeCount(numNodes uint32, shards, s int) int {
	return int((int64(numNodes) - int64(s) + int64(shards) - 1) / int64(shards))
}

// NewEngine builds an engine per cfg, allocating sketches (in shard-owned
// RAM arenas or on the sketch store), the buffering structure, and one
// Graph Worker per shard.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		vecLen:   cfg.VectorLen(),
		chainTag: newChainTag(),
	}
	seeds := make([]uint64, cfg.Rounds)
	for r := range seeds {
		seeds[r] = e.roundSeed(r)
	}
	e.roundSeeds = seeds
	e.queryArena = cubesketch.NewSlab(0, e.vecLen, cfg.Columns, seeds[:1])
	proto := cubesketch.New(e.vecLen, cfg.Columns, cfg.Seed)
	e.sketchSize = proto.SerializedSize()
	e.queryArenaBytes = int64(cfg.NumNodes) * int64(proto.Bytes())
	e.slotSize = e.sketchSize * cfg.Rounds
	// One past the fallback threshold: while every first-dirtying below the
	// limit captured an image, a refused capture implies the dirty count
	// already exceeds the threshold and the next query falls back anyway.
	e.beforeLimit = int(cfg.DeltaQueryMaxDirtyFrac*float64(cfg.NumNodes)) + 1
	e.before = make(map[uint32][]byte)
	if cfg.SketchesOnDisk {
		// Out of core the images are RAM the deployment meant to keep on the
		// device, so they get a quarter of what the write-back cache gets: a
		// dirty node past that cap has no image and its component re-solves
		// from singletons — the price of a bounded footprint, not an error.
		budget := cfg.CacheBytes
		if budget <= 0 {
			budget = DefaultCacheBytes
		}
		if limit := int(budget / 4 / int64(e.slotSize)); limit < e.beforeLimit {
			e.beforeLimit = limit
		}
	}

	// Resolve the disk-tier geometry: group slots sized toward the device
	// block (the paper's max{1, B / sketch bytes} node grouping), and the
	// write-back cache budget. RAM mode keeps groups of 1 — grouping only
	// changes disk access granularity.
	e.npg = 1
	if cfg.SketchesOnDisk {
		npg := cfg.NodesPerGroup
		if npg <= 0 {
			npg = cfg.BlockSize / e.slotSize
			if npg > 256 {
				npg = 256
			}
		}
		if npg < 1 {
			npg = 1
		}
		if uint32(npg) > cfg.NumNodes {
			npg = int(cfg.NumNodes)
		}
		e.npg = npg
		e.cfg.NodesPerGroup = npg
		if cfg.CacheBytes == 0 {
			e.cfg.CacheBytes = DefaultCacheBytes
		}
		cfg = e.cfg

		e.storeDev, err = e.openDevice("sketches.gz0")
		if err != nil {
			return nil, err
		}
		e.store, err = diskstore.New(e.storeDev, cfg.NumNodes, e.slotSize, npg)
		if err != nil {
			return nil, err
		}
		// Initialize every slot with the empty-sketch encoding so reads
		// before first write decode correctly, in coalesced chunks rather
		// than one device write per node.
		init := cubesketch.NewSlab(1, e.vecLen, cfg.Columns, seeds)
		chunkSlots := cfg.QueryScanBytes / e.slotSize
		if chunkSlots < 1 {
			chunkSlots = 1
		}
		if uint32(chunkSlots) > cfg.NumNodes {
			chunkSlots = int(cfg.NumNodes)
		}
		chunk := make([]byte, chunkSlots*e.slotSize)
		for i := 0; i < chunkSlots; i++ {
			init.MarshalNode(0, chunk[i*e.slotSize:])
		}
		for node := uint32(0); node < cfg.NumNodes; node += uint32(chunkSlots) {
			count := chunkSlots
			if rest := int(cfg.NumNodes - node); count > rest {
				count = rest
			}
			if err := e.store.WriteRange(node, count, chunk[:count*e.slotSize]); err != nil {
				return nil, fmt.Errorf("core: initializing sketch store: %w", err)
			}
		}
		if cfg.CacheBytes >= 0 {
			e.cache = diskstore.NewCache(e.store, diskstore.CacheConfig{
				Bytes:  cfg.CacheBytes,
				Shards: cfg.Shards,
				NewSlab: func() *cubesketch.Slab {
					return cubesketch.NewSlab(npg, e.vecLen, cfg.Columns, seeds)
				},
			})
		}
	}

	e.shards = make([]*shard, cfg.Shards)
	// Floor division keeps the total queued-batch bound at or under the
	// configured QueueCapacity; each shard needs at least one slot, so
	// with QueueCapacity < Shards the floor of one slot per shard wins.
	queueCap := cfg.QueueCapacity / cfg.Shards
	if queueCap < 1 {
		queueCap = 1
	}
	for s := range e.shards {
		sh := &shard{
			id:        s,
			queue:     gutter.NewSPSC(queueCap),
			dirty:     bitset.NewAtomic(uint64(cfg.NumNodes)),
			dirtySeal: bitset.NewAtomic(uint64(cfg.NumNodes)),
		}
		if cfg.SketchesOnDisk {
			if e.cache == nil {
				sh.blob = make([]byte, e.slotSize)
				sh.scratch = cubesketch.NewSlab(1, e.vecLen, cfg.Columns, seeds)
			}
		} else {
			count := shardNodeCount(cfg.NumNodes, cfg.Shards, s)
			sh.slab = cubesketch.NewSlab(count, e.vecLen, cfg.Columns, seeds)
		}
		e.shards[s] = sh
	}

	// Dynamic slice → shard routing table. numSlices is a multiple of the
	// shard count, and slice s starts at shard s % Shards, so the initial
	// assignment routes group g to shard g % Shards: in RAM (groups of one
	// node) the static storage partition, out of core the worker whose
	// write-back cache shard (group % Shards) the group faults into — until
	// the rebalancer moves something.
	e.rebalancing = cfg.Shards > 1 && !cfg.NoRebalance
	e.numSlices = 1
	if cfg.Shards > 1 {
		sps := cfg.SlicesPerShard
		// Keep the routing tables sane if someone runs thousands of
		// shards; numSlices must stay a multiple of Shards.
		if max := (1 << 20) / cfg.Shards; sps > max {
			sps = max
		}
		if sps < 1 {
			sps = 1
		}
		e.numSlices = uint32(cfg.Shards * sps)
	}
	e.assign = make([]atomic.Uint32, e.numSlices)
	e.slicePushes = make([]atomic.Uint64, e.numSlices)
	e.migrations = make([]atomic.Pointer[migration], e.numSlices)
	for s := range e.assign {
		e.assign[s].Store(uint32(s % cfg.Shards))
	}

	sink := func(b gutter.Batch) {
		e.pending.Add(1)
		slice := e.sliceOf(b.Node)
		for {
			sid := e.assign[slice].Load()
			sh := e.shards[sid]
			sh.pushMu.Lock()
			// Re-check under the push mutex: a migration updates the
			// assignment while holding the old owner's pushMu, so a stale
			// read here is caught before the push and retried — no batch
			// can land behind the handoff sentinel in the old queue.
			if e.assign[slice].Load() != sid {
				sh.pushMu.Unlock()
				continue
			}
			if e.rebalancing {
				e.slicePushes[slice].Add(1)
			}
			ok := sh.queue.Push(b)
			sh.pushMu.Unlock()
			if !ok {
				e.pending.Done()
			}
			return
		}
	}
	switch cfg.Buffering {
	case BufferLeaf:
		capUpdates := int(cfg.BufferFactor * float64(e.slotSize) / 4)
		if capUpdates < 1 {
			capUpdates = 1
		}
		// Leaf ranges align to the disk tier's node groups, so one group
		// flush is one burst of batches against one group slot.
		e.leaf = gutter.NewLeafGutters(cfg.NumNodes, capUpdates, cfg.GutterStripes, e.npg, sink)
		e.buf = e.leaf
	case BufferTree:
		e.treeDev, err = e.openDevice("guttertree.gz0")
		if err != nil {
			return nil, err
		}
		tc := cfg.Tree
		if tc.NodesPerLeaf <= 0 {
			// Align leaf gutters to the disk tier's node groups too.
			tc.NodesPerLeaf = e.npg
		}
		if tc.LeafRecords <= 0 {
			// Paper: leaf gutters sized at twice the node-group sketch.
			tc.LeafRecords = 2 * e.slotSize * tc.NodesPerLeaf / 8
		}
		e.tree, err = gutter.NewTree(cfg.NumNodes, tc, e.treeDev, sink)
		if err != nil {
			return nil, err
		}
		e.buf = e.tree
	case BufferNone:
		e.buf = gutter.NewUnbuffered(sink)
	default:
		return nil, fmt.Errorf("core: unknown buffering kind %d", cfg.Buffering)
	}

	if cfg.WAL {
		if e.log, err = e.openWAL(); err != nil {
			return nil, err
		}
	}

	for _, sh := range e.shards {
		e.wg.Add(1)
		go e.worker(sh)
	}
	if e.rebalancing {
		e.startRebalancer()
	}
	return e, nil
}

// openWAL opens (or creates) the engine's write-ahead log, scanning any
// existing segments so appends resume after the last intact record.
func (e *Engine) openWAL() (*wal.Log, error) {
	st := e.cfg.WALStorage
	if st == nil {
		if e.cfg.Dir == "" && e.cfg.WALDir == "" {
			st = wal.NewMemStorage(e.cfg.BlockSize)
		} else {
			dir := e.cfg.WALDir
			if dir == "" {
				dir = filepath.Join(e.cfg.Dir, "wal")
			}
			ds, err := wal.NewDirStorage(dir, e.cfg.BlockSize)
			if err != nil {
				return nil, err
			}
			st = ds
		}
	}
	return wal.Open(wal.Options{
		Storage:      st,
		SegmentBytes: e.cfg.WALSegmentBytes,
		Policy:       e.cfg.WALFsync,
		Interval:     e.cfg.WALFsyncInterval,
	})
}

// SetLoggedHook installs fn to run after every successful WAL append,
// with the batch's sequence number, under the same quiesce read lock as
// the append (see the field comment). Call it before any concurrent
// ingest; nil removes the hook. No-op state aside, the hook only fires
// when the WAL is enabled.
func (e *Engine) SetLoggedHook(fn func(seq uint64)) { e.loggedHook = fn }

// SetCheckpointMeta installs fn as the supplier of the opaque metadata
// blob sealed into each checkpoint (gzserve persists its ingest-gate
// snapshot through this). fn runs under the quiesce write lock after the
// drain, so the blob is exactly consistent with the checkpoint's cut.
// Call before any checkpoint; nil removes the supplier.
func (e *Engine) SetCheckpointMeta(fn func() []byte) { e.ckptMeta = fn }

// RestoredWALPos returns the WAL position (last covered LSN) recorded in
// the checkpoint this engine was restored from, or 0.
func (e *Engine) RestoredWALPos() uint64 { return e.restoredWALPos }

// RestoredMeta returns the metadata blob of the checkpoint this engine
// was restored from (nil if none).
func (e *Engine) RestoredMeta() []byte { return e.restoredMeta }

func (e *Engine) openDevice(name string) (iomodel.Device, error) {
	if e.cfg.DeviceFactory != nil {
		return e.cfg.DeviceFactory(name)
	}
	if e.cfg.Dir == "" {
		return iomodel.NewMem(e.cfg.BlockSize), nil
	}
	return iomodel.OpenFile(filepath.Join(e.cfg.Dir, name), e.cfg.BlockSize)
}

func (e *Engine) roundSeed(r int) uint64 {
	return e.cfg.Seed + uint64(r+1)*roundSeedSalt
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardOf returns the shard owning node, and node's index within it.
func (e *Engine) shardOf(node uint32) (*shard, int) {
	k := uint32(len(e.shards))
	return e.shards[node%k], int(node / k)
}

// sliceOf returns the routing slice of node: its disk group's, so that the
// unit of I/O is also the unit of ownership. A group-aligned gutter flush
// emits a group's batches back to back; routed by node they would land on
// every worker at once and serialize on the group's cache-shard lock, one
// worker faulting the group in while the others wait. In RAM a group is
// one node and this is node % numSlices.
func (e *Engine) sliceOf(node uint32) uint32 {
	return node / uint32(e.npg) % e.numSlices
}

// checkEdge validates and normalizes one edge against the node universe.
func (e *Engine) checkEdge(eg stream.Edge) (stream.Edge, error) {
	n := eg.Normalize()
	if n.U == n.V || n.V >= e.cfg.NumNodes {
		return n, fmt.Errorf("core: invalid edge (%d,%d) for %d nodes", eg.U, eg.V, e.cfg.NumNodes)
	}
	return n, nil
}

// CheckEdge reports whether the edge is ingestible (no self loop, both
// endpoints inside the node universe) without ingesting anything — the
// same rule every ingest path applies, exposed so session buffers can
// reject bad updates eagerly instead of at flush time.
func (e *Engine) CheckEdge(eg stream.Edge) error {
	_, err := e.checkEdge(eg)
	return err
}

// Update ingests one stream update. Because CubeSketch works over Z_2,
// insertions and deletions are the same toggle; stream well-formedness
// (no duplicate inserts, no deletes of absent edges) is the caller's
// contract, checkable with stream.Validator. Safe for concurrent use by
// any number of producers.
func (e *Engine) Update(up stream.Update) error {
	eg, err := e.checkEdge(up.Edge)
	if err != nil {
		return err
	}
	if e.log != nil {
		// The durable path funnels through ingestEdges so the WAL append
		// happens exactly once, before buffering, like every batch path.
		scratch := e.getEdgeScratch(1)
		defer e.putEdgeScratch(scratch)
		*scratch = append(*scratch, eg)
		return e.ingestEdges(*scratch, 0)
	}
	e.quiesce.RLock()
	defer e.quiesce.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.buf.InsertEdge(eg.U, eg.V); err != nil {
		return err
	}
	// Count only after the buffer accepted the update, so errored updates
	// never inflate the Updates stat. The epoch bump invalidates any
	// cached query answer predating this update.
	e.updates.Add(1)
	e.epoch.Add(1)
	return e.err()
}

// UpdateBatch ingests a batch of stream updates in one pass: the whole
// batch is validated up front (an invalid update fails the call before
// anything is buffered), then handed to the buffering layer in one
// InsertEdges call, amortizing per-call overhead — the bulk path behind
// Graph.ApplyBatch and Ingestor flushes. Safe for concurrent use.
func (e *Engine) UpdateBatch(ups []stream.Update) error {
	return e.UpdateBatchSeq(ups, 0)
}

// UpdateBatchSeq is UpdateBatch carrying a client sequence number into
// the WAL record (0 means none): after a crash, Recover reports the
// replayed seqs so a networked ingest front end can rebuild its
// at-most-once state and refuse a retry of a batch that survived. With
// the WAL disabled seq is ignored.
func (e *Engine) UpdateBatchSeq(ups []stream.Update, seq uint64) error {
	if len(ups) == 0 {
		return nil
	}
	edges := e.getEdgeScratch(len(ups))
	defer e.putEdgeScratch(edges)
	for _, up := range ups {
		eg, err := e.checkEdge(up.Edge)
		if err != nil {
			return err
		}
		*edges = append(*edges, eg)
	}
	return e.ingestEdges(*edges, seq)
}

// InsertEdges ingests a batch of edge insertions (equivalently, toggles).
// Like UpdateBatch, validation happens before any buffering.
func (e *Engine) InsertEdges(edges []stream.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	scratch := e.getEdgeScratch(len(edges))
	defer e.putEdgeScratch(scratch)
	for _, eg := range edges {
		n, err := e.checkEdge(eg)
		if err != nil {
			return err
		}
		*scratch = append(*scratch, n)
	}
	return e.ingestEdges(*scratch, 0)
}

// ingestEdges hands validated, normalized edges to the buffering layer.
// With the WAL enabled the append is the commit point: it precedes the
// buffer insert inside the same quiesce read-lock hold, so any record
// the log accepted is also in the pipeline by the time a drain (write
// lock) completes — a sealed checkpoint's state covers exactly the LSNs
// up to its recorded WAL position, never fewer.
func (e *Engine) ingestEdges(edges []stream.Edge, seq uint64) error {
	e.quiesce.RLock()
	defer e.quiesce.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if e.log != nil {
		if _, err := e.log.AppendEdges(seq, edges); err != nil {
			return fmt.Errorf("core: wal append: %w", err)
		}
		if h := e.loggedHook; h != nil {
			h(seq)
		}
	}
	if err := e.buf.InsertEdges(edges); err != nil {
		return err
	}
	e.updates.Add(uint64(len(edges)))
	e.epoch.Add(1)
	return e.err()
}

// replayEdges is the recovery-time ingest: identical to ingestEdges but
// without logging (the records being replayed are already in the WAL).
func (e *Engine) replayEdges(edges []stream.Edge) error {
	e.quiesce.RLock()
	defer e.quiesce.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.buf.InsertEdges(edges); err != nil {
		return err
	}
	e.updates.Add(uint64(len(edges)))
	e.epoch.Add(1)
	return e.err()
}

func (e *Engine) getEdgeScratch(capacity int) *[]stream.Edge {
	if p, _ := e.edgeScratch.Get().(*[]stream.Edge); p != nil {
		return p
	}
	s := make([]stream.Edge, 0, capacity)
	return &s
}

func (e *Engine) putEdgeScratch(p *[]stream.Edge) {
	*p = (*p)[:0]
	e.edgeScratch.Put(p)
}

// InsertEdge ingests an edge insertion.
func (e *Engine) InsertEdge(u, v uint32) error {
	return e.Update(stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Insert})
}

// DeleteEdge ingests an edge deletion.
func (e *Engine) DeleteEdge(u, v uint32) error {
	return e.Update(stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Delete})
}

// Closed reports whether Close has completed or begun.
func (e *Engine) Closed() bool { return e.closed.Load() }

// worker is a Graph Worker: it pops node-keyed batches from its shard's
// queue and applies them to the owning node slices' sketches. While a
// slice is assigned here, this worker is the only goroutine applying its
// nodes (the migration handoff in rebalance.go preserves that exclusivity
// across reassignments), so no locking is needed anywhere on the apply
// path. Every real batch has at least one update; an empty Others slice
// marks a migration sentinel, which is control flow, not sketch work (it
// is not counted in pending).
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	for {
		b, ok := sh.queue.Pop()
		if !ok {
			return
		}
		if len(b.Others) == 0 {
			e.completeMigration(b.Node)
			continue
		}
		e.awaitHandoff(sh, b.Node)
		e.applyBatch(sh, b)
		e.buf.Recycle(b.Others)
		e.pending.Done()
	}
}

// applyBatch applies all of a batch's updates to one node's sketches.
func (e *Engine) applyBatch(sh *shard, b gutter.Batch) {
	// Translate far endpoints into characteristic-vector indices once;
	// every round's sketch consumes the same indices.
	sh.indices = sh.indices[:0]
	for _, other := range b.Others {
		eg := stream.Edge{U: b.Node, V: other}
		sh.indices = append(sh.indices, stream.EdgeIndex(uint64(e.cfg.NumNodes), eg))
	}
	sh.batches.Add(1)
	// A node's first dirtying since the last cached query snapshots its
	// pre-change sketch bytes: that state is exactly what the cached result
	// observed, and the delta query's materialization is built on the
	// difference from it. img is nil when no image is wanted; each
	// placement below fills it from wherever the pre-change stack is at
	// hand (the home slab, the decoded cache group, the slot just read).
	img := e.beforeImage(b.Node)
	// Record the delta before touching the sketches: once set, the bit is
	// only cleared after a query observed (and cached over) the applied
	// state, so the incremental query path can never miss this change.
	// dirtySeal gets the same treatment against the last checkpoint seal.
	sh.dirty.Set(uint64(b.Node))
	sh.dirtySeal.Set(uint64(b.Node))
	if h := e.testApplyHook; h != nil {
		defer h(b.Node)()
	}
	// Foreign: executed by a worker other than the slice's initial owner
	// (slice % Shards) — in RAM the node's storage-home shard.
	if int(e.sliceOf(b.Node))%len(e.shards) != sh.id {
		sh.foreign.Add(1)
	}

	if e.store == nil {
		// Apply to the node's *storage home* slab (static node % Shards),
		// which under a migrated assignment is not the executing worker's
		// own. Safe without locks: Slab.Apply keeps all scratch per-call,
		// and the handoff protocol guarantees at most one worker applies a
		// given slice's nodes at any moment.
		home, local := e.shardOf(b.Node)
		if img != nil {
			home.slab.MarshalNode(local, img)
		}
		home.slab.Apply(local, sh.indices)
		return
	}

	if e.cache != nil {
		// Tiered path: the batch applies to the decoded group in the
		// write-back cache; the device is touched only on miss fill and
		// dirty write-back. Snapshot pre-image preservation happens at
		// write-back time through the cache's write barrier, because
		// that is the only point where device bytes change (the scanner
		// reads the device, which a seal-time flush made coherent).
		if err := e.cache.ApplyCapture(b.Node, sh.indices, img); err != nil {
			e.setErr(fmt.Errorf("core: applying batch to node %d: %w", b.Node, err))
		}
		return
	}

	// Uncached ablation path (CacheBytes < 0): one slot round trip per
	// batch.
	if err := e.store.Read(b.Node, sh.blob); err != nil {
		e.setErr(fmt.Errorf("core: reading sketches of node %d: %w", b.Node, err))
		return
	}
	copy(img, sh.blob)
	// A snapshot stream may be scanning the store right now; hand it this
	// slot's pre-image before overwriting, so the snapshot stays an exact
	// cut even though ingestion never stopped (checkpoint.go).
	if snap := e.snap.Load(); snap != nil {
		snap.preserve(b.Node, sh.blob)
	}
	if err := sh.scratch.UnmarshalNode(0, sh.blob); err != nil {
		e.setErr(fmt.Errorf("core: decoding sketches of node %d: %w", b.Node, err))
		return
	}
	sh.scratch.Apply(0, sh.indices)
	sh.scratch.MarshalNode(0, sh.blob)
	if err := e.store.Write(b.Node, sh.blob); err != nil {
		e.setErr(fmt.Errorf("core: writing sketches of node %d: %w", b.Node, err))
	}
}

// beforeImage registers a before-image for node if the mutation the
// caller is about to make is the node's first dirtying since the last
// cached query (no shard's dirty vector has it yet), and returns the
// slot-sized buffer for the caller to fill with the node's pre-change
// serialized stack; nil means no image is wanted. Because no apply touched
// the node in between, the image is the state the cached result observed —
// which is what lets a delta query rebuild an affected supernode's cut
// from its dirty members alone: a cached component's round aggregate is
// the zero sketch (its cut was certified empty), so XORing each dirty
// member's current-⊕-before diff into zero reproduces the component's true
// current cut (query.go).
//
// Nothing is captured while no query could use it: before the first cached
// result (a bulk load), with delta queries disabled, or under the coarse
// dirty-all state. All three only change under the quiesce write lock with
// the workers idle. Capture also stops once beforeLimit nodes hold images.
// In RAM the limit sits just past the delta query's fallback threshold, so
// a refusal implies the next query runs from scratch regardless; out of
// core it is the smaller of that and the image byte budget (NewEngine), and
// a refused node's component alone re-solves from singletons. The
// cross-shard dirty test is safe concurrently: bits are only ever set by
// appliers and apply exclusivity serializes all applies of one node, so
// the one goroutine executing this node's first apply observes every
// earlier apply's bit.
func (e *Engine) beforeImage(node uint32) []byte {
	if e.cfg.NoDeltaQuery || e.queryCache.Load() == nil {
		return nil
	}
	for _, s := range e.shards {
		if s.dirty.Test(uint64(node)) {
			return nil // not the first dirtying: the image, if any, is already right
		}
	}
	return e.addBefore(node)
}

// addBefore registers a before-image for node and returns its slot-sized
// buffer — one the last cached query handed back to the pool when there is
// one — or nil once beforeLimit nodes hold images.
func (e *Engine) addBefore(node uint32) []byte {
	e.beforeMu.Lock()
	defer e.beforeMu.Unlock()
	if len(e.before) >= e.beforeLimit {
		return nil
	}
	var buf []byte
	if n := len(e.beforeFree); n > 0 {
		buf, e.beforeFree = e.beforeFree[n-1], e.beforeFree[:n-1]
	} else {
		buf = make([]byte, e.slotSize)
	}
	e.before[node] = buf
	return buf
}

// releaseBeforeLocked drops every before-image — their baseline has been
// superseded — and keeps the buffers for the next captures: without the
// pool every query cycle allocates, zeroes and discards a slot-sized
// buffer per first-dirtied node. Images and pool together never exceed
// beforeLimit buffers, because a capture drains the pool before it
// allocates. The caller holds the quiesce write lock with the workers
// idle, and no query session reading the images is still running.
func (e *Engine) releaseBeforeLocked() {
	e.beforeMu.Lock()
	defer e.beforeMu.Unlock()
	for _, img := range e.before {
		e.beforeFree = append(e.beforeFree, img)
	}
	clear(e.before)
}

func (e *Engine) setErr(err error) {
	e.workerErr.CompareAndSwap(nil, &err)
}

func (e *Engine) err() error {
	if p := e.workerErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Drain flushes the buffering structure and waits until every produced
// batch has been applied to the sketches (the cleanup step of Figure 9).
// It excludes producers for the duration, so on return the sketches
// reflect every update whose ingest call returned before Drain began.
func (e *Engine) Drain() error {
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	return e.drainLocked()
}

// drainLocked is Drain's body; the caller holds the quiesce write lock.
// Afterwards the workers are quiescent (pending is zero and producers are
// blocked), so the caller may read and write shard state directly until
// it releases the lock.
func (e *Engine) drainLocked() error {
	flushErr := e.buf.Flush()
	e.pending.Wait()
	if flushErr != nil {
		return flushErr
	}
	return e.err()
}

// Stats returns a snapshot of engine statistics.
func (e *Engine) Stats() Stats {
	st := Stats{
		Updates:              e.updates.Load(),
		Shards:               len(e.shards),
		ShardBatches:         make([]uint64, len(e.shards)),
		QueryRounds:          int(e.lastRounds.Load()),
		QueryCacheHits:       e.cacheHits.Load(),
		DeltaQueries:         e.deltaQueries.Load(),
		DeltaFallbacks:       e.deltaFallbacks.Load(),
		SketchFailures:       e.sketchFailures.Load(),
		CheckpointStallNanos: uint64(e.lastCkptStall.Load()),
		DeltaCheckpoints:     e.deltaCkpts.Load(),
		DeltaCheckpointBytes: e.deltaCkptBytes.Load(),
		FullCheckpointBytes:  e.fullCkptBytes.Load(),
		LastCheckpointID:     e.ckptSeq.Load(),
		LastCheckpointWALLSN: e.ckptLSN.Load(),
	}
	st.Rebalances = e.rebalances.Load()
	// The dirty count is the union, not the sum, across shards: a node can
	// be marked in several shards' vectors (home apply, then a rebalanced
	// foreign apply).
	dirtyUnion := bitset.New(uint64(e.cfg.NumNodes))
	for i, sh := range e.shards {
		b := sh.batches.Load()
		st.ShardBatches[i] = b
		st.Batches += b
		st.ForeignBatches += sh.foreign.Load()
		st.DirtyNodes += sh.dirty.OrInto(dirtyUnion)
		if sh.slab != nil {
			st.MemoryBytes += int64(sh.slab.Bytes())
		}
	}
	if e.storeDev != nil {
		st.SketchIO = e.storeDev.Stats()
		st.DiskBytes += e.store.TotalBytes()
	}
	if e.cache != nil {
		st.SketchCache = e.cache.Stats()
		st.MemoryBytes += st.SketchCache.CachedBytes
	}
	e.beforeMu.Lock()
	st.MemoryBytes += int64(len(e.before)+len(e.beforeFree)) * int64(e.slotSize)
	e.beforeMu.Unlock()
	st.MemoryBytes += e.queryArenaBytes
	if e.treeDev != nil {
		st.BufferIO = e.treeDev.Stats()
		if e.tree != nil {
			// DiskBytes covers sketch slots + gutter tree, as documented.
			st.DiskBytes += e.tree.TotalBytes()
		}
	}
	if e.leaf != nil {
		st.MemoryBytes += int64(e.leaf.Capacity()) * 4 * int64(e.cfg.NumNodes)
	}
	if e.log != nil {
		st.WAL = e.log.Stats()
	}
	return st
}

// Close drains still-buffered updates, stops the workers, and releases
// devices. It is idempotent (repeated and concurrent Close calls are
// safe) and may be issued from any goroutine, even with ingest calls in
// flight: it takes the quiesce write lock, so racing producers either
// complete before the drain or observe ErrClosed afterwards. The engine
// must not be used after Close (all operations return ErrClosed). The
// drain means no buffered update whose ingest call succeeded is ever
// silently dropped; a drain failure (e.g. a faulty device) is reported in
// the returned error.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		// Stop the rebalancer before quiescing: no new migrations start
		// mid-close, and an in-flight handoff still completes because its
		// sentinel is drained (or its queue closed) below.
		e.stopRebalancer()
		// ckptMu first (the global lock order): a checkpoint stream in
		// flight finishes before its devices are released under it.
		e.ckptMu.Lock()
		defer e.ckptMu.Unlock()
		e.quiesce.Lock()
		drainErr := e.drainLocked()
		e.closed.Store(true)
		for _, sh := range e.shards {
			sh.queue.Close()
		}
		e.wg.Wait()
		errs := []error{drainErr, e.buf.Close()}
		if e.log != nil {
			// Flush and sync the log tail before releasing it; every
			// accepted-but-unsynced record becomes durable on a clean
			// shutdown regardless of fsync policy.
			errs = append(errs, e.log.Close())
		}
		if e.cache != nil {
			// Spill dirty cached groups before the device goes away, so
			// the on-device state reflects every applied update.
			errs = append(errs, e.cache.WriteBackAll())
		}
		if e.storeDev != nil {
			errs = append(errs, e.storeDev.Close())
		}
		if e.treeDev != nil {
			errs = append(errs, e.treeDev.Close())
		}
		e.closeErr = errors.Join(errs...)
		e.quiesce.Unlock()
	})
	return e.closeErr
}
