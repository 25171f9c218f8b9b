package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

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

// ErrOutOfRange is returned when an update, or a checkpoint section, lies
// wholly outside the node range an engine owns or was asked to read.
var ErrOutOfRange = errors.New("core: outside the owned node range")

// ErrRangeEngine is returned by the queries of an engine that owns only a
// node range (Config.Range): its sketches cannot answer for the graph.
var ErrRangeEngine = errors.New("core: an engine owning a node range cannot answer queries")

// Stats reports engine activity.
type Stats struct {
	// Updates is the number of stream updates ingested — on a range
	// engine, those whose lower endpoint it owns.
	Updates uint64
	// Batches is the number of node-keyed batches applied to sketches,
	// summed across shards.
	Batches uint64
	// Shards is the number of ingest shards (= Graph Workers), and
	// ShardBatches the per-shard batch counts. Shard s applies every batch
	// of the node groups g with g % Shards == s, so a skewed distribution
	// means this stream's hot groups share a shard.
	Shards       int
	ShardBatches []uint64
	// Rebalances and ForeignBatches are always zero: group ownership is
	// static, so no group moves and no batch is applied by a worker other
	// than its group's owner. They stay for readers of the struct.
	Rebalances     uint64
	ForeignBatches uint64
	// SketchIO and BufferIO are block-device statistics for the sketch
	// store and the gutter tree (zero when those live in RAM).
	SketchIO, BufferIO iomodel.Stats
	// SketchCache reports the disk-mode write-back cache of decoded
	// sketch groups: hits and misses count group lookups on the apply
	// path, evictions and write-backs count budget-driven spills, and the
	// residency fields give the cache's current RAM footprint (also
	// included in MemoryBytes). All zero in RAM mode.
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
	// fraction exceeded deltaQueryMaxDirtyFrac, 10 % (a bulk load, or a
	// checkpoint merge carrying that many non-empty slots), the capture's
	// budget could not hold a dirty node's log or image (out of core only:
	// the budget is a quarter of the write-back cache, and the baseline
	// overflows past it), or the delta rounds failed to certify (rare; the
	// full run is the correctness backstop).
	DeltaQueries, DeltaFallbacks uint64
	// DirtyNodes is the number of nodes whose sketches changed since the
	// last successfully cached query result: applied batches, and the
	// non-empty slots of checkpoint merges, delta applies and node patches.
	DirtyNodes uint64
	// SketchFailures counts CubeSketch sampling failures observed across
	// all queries (§6.3 observed zero in 5000 trials; so do we, but we
	// count anyway).
	SketchFailures uint64
	// CheckpointStallNanos is how long the most recent WriteCheckpoint
	// excluded ingestion, in nanoseconds: the drain plus the snapshot seal,
	// which spills the write-back cache out of core and installs the
	// capture's seal (a delta copies its dirty slots instead). The
	// stream write itself runs with ingestion live, so this is bounded by
	// the drain, not by the sketch bytes or writer bandwidth.
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
	// write-back cache, the capture's images — the delta query's and a
	// live checkpoint stream's, held or pooled — and the queries' supernode
	// arena (NumNodes single-round sketches, counted at that size although
	// the first query is what allocates it); DiskBytes the on-device
	// footprint (sketch slots + gutter tree).
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
// multi-producer gutter.Buffer; emitted batches are routed to their node
// group's owner (ownerOf) through one SPSC queue per shard (pushes
// serialized by a per-shard mutex taken once per batch); and each shard's
// single Graph Worker applies every batch of its groups for the engine's
// whole life. The sketches live in one of two stores (store.go), picked
// by NewEngine: ramStore, an arena-backed cubesketch.Slab per shard that
// its worker owns outright, or deviceStore, node-group slots on a block
// device behind a sharded write-back cache whose shard s only the worker
// of shard s faults groups into. Exclusive ownership replaces the seed
// design's per-node mutexes: the per-update path takes no engine-level
// lock beyond a read-lock on the quiesce RWMutex (and, batched, that cost
// is amortized across the whole batch). Quiescent phases (Drain, queries,
// Close) take the quiesce write lock, flush the buffer, and wait on the
// pending-batch WaitGroup; producers blocked on the read lock cannot race
// them. Checkpoint writes hold the write lock only long enough to drain
// and seal a snapshot, then stream with ingestion live (checkpoint.go).
// Every reader that needs a node's bytes as of its own cut — the delta
// query's baseline, a streaming seal — gets them from one capture, taken
// at the node's first change after the cut in both stores (capture.go).
type Engine struct {
	cfg        Config
	vecLen     uint64
	roundSeeds []uint64 // per round, shared by every node's sketch of it
	sketchSize int      // serialized bytes of one CubeSketch
	slotSize   int      // serialized bytes of one node sketch (all rounds)
	// geometry is a slab of no stacks in the engine's shape, whose
	// ApplyNodeBinary toggles indices in a serialized slot: a leftover
	// batch applied to a slot read off the device, a log toggled out of
	// its image (capture.end).
	geometry *cubesketch.Slab

	// The owned nodes are [lo, lo+n) (Config.Range; the whole universe
	// unless ranged). Every structure below — slabs, store, gutters,
	// stamps, checkpoint plans — is indexed by the local id node-lo; only
	// the sketch index of an edge and checkpoint section headers use
	// global ids.
	lo, n  uint32
	ranged bool

	shards []*shard

	// sketches is where the node sketches live (store.go); npg is the node
	// group every batch of which one worker applies (ownerOf): the device
	// store's group of slots, one node in RAM.
	sketches sketchStore
	npg      int
	// emptySlot is the slot of a node that never received an update: the
	// same bytes for every node, so the merge recognizes no-op slots by
	// comparison, and its round headers are what checkSlots requires.
	emptySlot []byte

	buf     gutter.Buffer
	pending sync.WaitGroup
	wg      sync.WaitGroup
	// hold is the sink a query's drain flushes the gutters into
	// (takeLeftover): it keeps their leftover batches in the query session,
	// for a delta query to log and a from-scratch one to apply in its pass,
	// instead of queueing them for the workers. Made once, with the engine,
	// as Flush's argument list.
	hold []gutter.Sink

	// testApplyHook, when non-nil (tests only), brackets every batch
	// apply: change calls it with the node before the store's apply and
	// the returned function after, inside the capture's in-flight window
	// in both stores, on a worker or on a query applying a leftover batch.
	// The ownership test uses it to prove that one worker applies each
	// group, the checkpoint tests to hold an apply open while the scanner
	// claims its section, the deferral tests to hold the workers through
	// a delta query.
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
	// path builds before handing them to the buffer. It and ckptBuf are
	// allocated apart from the engine: the runtime keeps every pool used
	// since the last collection reachable until the next, and a pool
	// embedded by value would keep a closed engine's sketches with it — a
	// coordinator retiring a view per refresh held several at once.
	edgeScratch *sync.Pool

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

	// Change tracking, shared by every reader that asks what changed since
	// its own cut: the query cache and each seal a delta may name as its
	// base. cut counts consumer cuts — a query result cached, a seal, a
	// chain position adopted — each taken under the quiesce write lock
	// with the workers idle. stamp[v] is cut+1 as of
	// node v's last sketch change (applyBatch, or markChangedNode for the
	// changes that bypass the batch path), so "v changed since cut X" is
	// stamp[v] > X for any X, and nothing is ever cleared. Written by v's
	// owner, or by the driving goroutine while the workers are idle; read
	// concurrently by Stats.
	stamp []atomic.Uint64
	cut   atomic.Uint64

	// Incremental-query state (query.go). deltaQueries/deltaFallbacks back
	// the Stats counters.
	deltaQueries   atomic.Uint64
	deltaFallbacks atomic.Uint64
	// What the delta path did, for tests to pin by count: components of the
	// cached partition handled per class (runDeltaBoruvka), and of the last
	// delta query the longest per-round contribution list, the DSU
	// operations and the piece search's visits.
	deltaClasses      [numDeltaClasses]atomic.Uint64
	lastDeltaContribs atomic.Int64
	lastDeltaOps      atomic.Int64
	lastDeltaVisits   atomic.Int64
	// capture keeps what each node changed since the cached query result's
	// cut, a log of indices or its bytes at the cut, and its bytes at a
	// live checkpoint's seal, taken at its changes after each
	// (capture.go).
	capture capture
	// queryArena holds the supernode sketches a Boruvka round sums, and out
	// of core the rounds a scan looked ahead (sampleRound). One serves every
	// query — they hold the quiesce write lock — re-formed per round inside
	// one allocation. The first query makes it (a construction that zeroes
	// it would pay for an engine that never queries), and no round asks for
	// more than NumNodes single-round sketches: queryArenaBytes, which Stats
	// counts from the start so that MemoryBytes does not step at that query.
	queryArena      *cubesketch.Slab
	queryArenaBytes int64
	// qs is the query session every query resets and reuses (query.go),
	// made by the first query like the arena.
	qs *querySession

	// Checkpoint subsystem state (checkpoint.go). ckptMu serializes whole
	// checkpoint operations and orders strictly before the quiesce lock
	// (every path that needs both takes ckptMu first, including Close).
	// ckptBuf pools section payload buffers; lastCkptStall records the
	// quiesce-held phase of the last WriteCheckpoint for Stats.
	ckptMu        sync.Mutex
	ckptBuf       *sync.Pool
	lastCkptStall atomic.Int64

	// Delta-checkpoint chain state (delta.go). chainTag is a random
	// per-lineage token minted at engine creation and adopted from the
	// envelope on restore: two engine incarnations can only chain to each
	// other's checkpoints when they share it, so a restarted worker that
	// re-mints the same small ids can never be mistaken for its previous
	// life. ckptSeq is the id of the engine's current checkpoint state
	// (last sealed, restored or delta-applied); ckptLSN the WAL position
	// that state covers. seals holds one mark per seal, ascending by id, the
	// oldest first: a delta against base id b ships the nodes stamped after
	// b's cut. seals is guarded by ckptMu; the atomics feed Stats.
	chainTag uint64
	ckptSeq  atomic.Uint64
	ckptLSN  atomic.Uint64
	seals    []sealMark

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

// shard is the state of one Graph Worker, which applies every batch of
// the node groups g with g % Shards == s (ownerOf) to the store: the SPSC
// queue feeding it and its scratch. No other goroutine touches these
// fields while the worker runs; the driving goroutine reads them only in
// quiescent phases.
type shard struct {
	queue *gutter.SPSC

	// pushMu serializes producers pushing onto this shard's queue,
	// preserving the SPSC single-producer contract with multiple ingest
	// goroutines. Taken once per emitted batch, not per update. Alone on
	// its cache line: producer lock traffic must not bounce the lines of
	// the worker-owned fields below (shards are allocated back to back
	// often enough for the padding to matter on both sides).
	pushMu sync.Mutex
	_      [gutter.CacheLine - 8]byte

	indices []uint64 // batch → characteristic-vector index scratch

	_ [gutter.CacheLine]byte

	// Worker-written counters, padded off the read-mostly fields above so
	// per-batch increments never invalidate a neighbor's hot line.
	batches atomic.Uint64 // batches applied by this worker
	_       [gutter.CacheLine - 8]byte
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
		ranged:   cfg.Range != NodeRange{},

		edgeScratch: new(sync.Pool),
		ckptBuf:     new(sync.Pool),
	}
	e.lo, e.n = cfg.owned()
	e.stamp = make([]atomic.Uint64, e.n)
	seeds := make([]uint64, cfg.Rounds)
	for r := range seeds {
		seeds[r] = e.roundSeed(r)
	}
	e.roundSeeds = seeds
	e.queryArena = cubesketch.NewSlab(0, e.vecLen, cfg.Columns, seeds[:1])
	proto := cubesketch.New(e.vecLen, cfg.Columns, cfg.Seed)
	e.sketchSize = proto.SerializedSize()
	if !e.ranged {
		e.queryArenaBytes = int64(cfg.NumNodes) * int64(proto.Bytes())
	}
	e.slotSize = e.sketchSize * cfg.Rounds
	e.geometry = e.newSlab(0)
	e.capture.init(e.n, e.slotSize, e.geometry)
	e.emptySlot = make([]byte, e.slotSize)
	e.newSlab(1).MarshalNode(0, e.emptySlot)

	e.npg = 1
	if cfg.SketchesOnDisk {
		// Out of core the images are RAM the deployment meant to keep on the
		// device, so they get a quarter of what the write-back cache gets.
		e.capture.budget = int(cfg.CacheBytes / 4)
		ds, err := newDeviceStore(e)
		if err != nil {
			return nil, err
		}
		e.sketches, e.npg = ds, ds.npg
		e.cfg.NodesPerGroup = ds.npg
		cfg = e.cfg
	} else {
		e.sketches = newRAMStore(e)
	}

	e.shards = make([]*shard, cfg.Shards)
	for s := range e.shards {
		e.shards[s] = &shard{queue: gutter.NewSPSC(queueSlotsPerShard)}
	}

	sink := e.dispatch
	e.hold = []gutter.Sink{func(b gutter.Batch) { e.qs.left = append(e.qs.left, b) }}
	switch cfg.Buffering {
	case BufferLeaf:
		capUpdates := int(cfg.BufferFactor * float64(e.slotSize) / 4)
		if capUpdates < 1 {
			capUpdates = 1
		}
		// Leaf ranges align to the disk tier's node groups, so one group
		// flush is one burst of batches against one group slot.
		// One lock stripe per shard or per core, whichever is more, so
		// concurrent producers rarely contend; correctness does not
		// depend on the count.
		stripes := max(cfg.Shards, runtime.GOMAXPROCS(0))
		e.leaf = gutter.NewLeafGutters(e.n, capUpdates, stripes, e.npg, sink)
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
		e.tree, err = gutter.NewTree(e.n, tc, e.treeDev, sink)
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

// dispatch is the sink the buffers emit to: it queues a batch for its node
// group's owner (ownerOf), counted pending until the worker has applied it.
func (e *Engine) dispatch(b gutter.Batch) {
	e.pending.Add(1)
	sh := e.ownerOf(b.Node)
	sh.pushMu.Lock()
	ok := sh.queue.Push(b)
	sh.pushMu.Unlock()
	if !ok {
		e.pending.Done()
	}
}

// ownerOf returns the shard whose worker applies every batch of node: the
// owner of its disk group, group % Shards, so that the unit of I/O is also
// the unit of ownership and each worker is the only one faulting groups
// into its shard of the write-back cache. A group-aligned gutter flush
// emits a group's batches back to back; routed by node they would land on
// every worker at once and serialize on the group's cache-shard lock, one
// worker faulting the group in while the others wait. In RAM a group is
// one node, so shard s owns ramStore's slab s.
func (e *Engine) ownerOf(node uint32) *shard { return e.shards[e.ownerIndex(node)] }

// ownerIndex returns the index in shards of node's owner (ownerOf).
func (e *Engine) ownerIndex(node uint32) int {
	return int(node / uint32(e.npg) % uint32(len(e.shards)))
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
// endpoints inside the node universe, and on a range engine at least one
// inside the range) without ingesting anything — the same rule every
// ingest path applies, exposed so session buffers can reject bad updates
// eagerly instead of at flush time.
func (e *Engine) CheckEdge(eg stream.Edge) error {
	n, err := e.checkEdge(eg)
	if err == nil && e.ranged {
		err = e.checkOwned([]stream.Edge{n})
	}
	return err
}

// checkOwned refuses a batch of normalized edges holding one with neither
// endpoint inside the owned range.
func (e *Engine) checkOwned(edges []stream.Edge) error {
	for _, eg := range edges {
		if eg.U-e.lo >= e.n && eg.V-e.lo >= e.n {
			return fmt.Errorf("%w: edge (%d,%d) has no endpoint in [%d,%d)", ErrOutOfRange, eg.U, eg.V, e.lo, e.lo+e.n)
		}
	}
	return nil
}

// buffer hands validated, normalized edges to the buffering layer and
// counts them. A universe engine buffers each edge under both endpoints. A
// range engine buffers only the halves whose node it owns (at its local
// id, the far endpoint kept global for the sketch index) and counts an
// update once, at the owner of its lower endpoint, so the counts of a
// cluster's range engines sum to the updates it ingested. The caller
// holds the quiesce read lock.
func (e *Engine) buffer(edges []stream.Edge) error {
	if !e.ranged {
		if err := e.buf.InsertEdges(edges); err != nil {
			return err
		}
		e.updates.Add(uint64(len(edges)))
		return nil
	}
	halves := e.getEdgeScratch(2 * len(edges))
	defer e.putEdgeScratch(halves)
	var owned uint64
	for _, eg := range edges {
		if u := eg.U - e.lo; u < e.n {
			owned++
			*halves = append(*halves, stream.Edge{U: u, V: eg.V})
		}
		if v := eg.V - e.lo; v < e.n {
			*halves = append(*halves, stream.Edge{U: v, V: eg.U})
		}
	}
	if err := e.buf.InsertHalves(*halves); err != nil {
		return err
	}
	e.updates.Add(owned)
	return nil
}

// Update ingests one stream update. Because CubeSketch works over Z_2,
// insertions and deletions are the same toggle; stream well-formedness
// (no duplicate inserts, no deletes of absent edges) is the caller's
// contract, checkable with stream.Validator. It takes UpdateBatch's path
// as a batch of one. Safe for concurrent use by any number of producers.
func (e *Engine) Update(up stream.Update) error {
	eg, err := e.checkEdge(up.Edge)
	if err != nil {
		return err
	}
	scratch := e.getEdgeScratch(1)
	defer e.putEdgeScratch(scratch)
	*scratch = append(*scratch, eg)
	return e.ingestEdges(*scratch, 0)
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
// the WAL record (0 means none): after a crash, RecoverChain reports the
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
	if e.ranged {
		if err := e.checkOwned(edges); err != nil {
			return err
		}
	}
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
	if err := e.buffer(edges); err != nil {
		return err
	}
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
	if err := e.buffer(edges); err != nil {
		return err
	}
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
// queue and applies them to its groups' sketches. Every batch of a group
// is routed here (ownerOf) for the engine's whole life, so this worker is
// the only goroutine applying the group's nodes and no locking is needed
// anywhere on the apply path.
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	for {
		b, ok := sh.queue.Pop()
		if !ok {
			return
		}
		e.applyBatch(sh, b)
		e.buf.Recycle(b.Others)
		e.pending.Done()
	}
}

// applyBatch applies all of a batch's updates to one node's sketches; sh
// is the node's owner.
func (e *Engine) applyBatch(sh *shard, b gutter.Batch) {
	if err := e.change(sh, b, e.sketches.apply); err != nil {
		e.setErr(fmt.Errorf("core: applying batch to node %d: %w", b.Node, err))
	}
}

// change is the one way a batch reaches its node's sketches, whoever
// applies it: the node's owning worker (applyBatch), or a query applying a
// leftover batch while the workers are idle — a delta query on its own
// goroutine (logLeftovers, applyLeftovers), an out-of-core from-scratch
// query in its pass (deviceStore.walk). sh is the node's owner, whose
// scratch and batch count the batch uses. apply changes the stack, first
// filling img, when non-nil, with the stack as it stands before the
// change: the image a reader whose cut precedes the change gets for the
// node, or the bytes a log converts from. What apply leaves to write — a
// slot's bytes for the device — the caller writes after change returns,
// with its neighbours', as an eviction writes a group back: whenever those
// bytes land, a live seal's scanner reads the node under its image, or
// read it before the change.
//
// A pre-cut batch (gutter.Batch.PreCut) is one a delta query logged and
// stamped under the quiesce lock and counts as applied at the cut its
// result took (logLeftovers): its change is recorded already, so it takes
// no baseline entry and no new stamp, and only a live seal, whose cut
// precedes it, takes its image.
func (e *Engine) change(sh *shard, b gutter.Batch, apply func(node uint32, indices []uint64, img []byte) error) error {
	// Translate far endpoints into characteristic-vector indices once;
	// every round's sketch consumes the same indices.
	sh.indices = e.batchIndices(sh.indices[:0], b)
	sh.batches.Add(1)
	// The capture logs the batch's indices for the delta query's
	// baseline, or takes an image for a reader (capture.go); op.img is nil
	// when no reader wants one, and apply fills it from wherever the
	// pre-change stack is at hand (the owner's slab, the decoded cache
	// group, the slot just read).
	var op captureOp
	if b.PreCut {
		op = e.capture.beginSeal(b.Node)
	} else {
		op = e.capture.begin(b.Node, e.wantsBase(b.Node), sh.indices)
		// Stamp the change before touching the sketches: no cut can be
		// taken while the batch is in flight, so every reader whose cut
		// precedes the applied state sees the node as changed.
		e.touch(b.Node)
	}
	var done func()
	if h := e.testApplyHook; h != nil {
		done = h(b.Node)
	}
	err := apply(b.Node, sh.indices, op.img)
	if done != nil {
		done()
	}
	e.capture.end(op, err)
	return err
}

// batchIndices appends the characteristic-vector indices of b's edges to
// dst. The batch is keyed by local id, the far ends are global.
func (e *Engine) batchIndices(dst []uint64, b gutter.Batch) []uint64 {
	node := b.Node + e.lo
	for _, other := range b.Others {
		dst = append(dst, stream.EdgeIndex(uint64(e.cfg.NumNodes), stream.Edge{U: node, V: other}))
	}
	return dst
}

// touch stamps node as changed after the current cut. A node touched again
// before the next cut already holds the stamp, so a hot node's later
// batches only load it. The stamps answer "changed since cut X" for any
// cut, a seal's included; the delta query's own cut is also answered by
// the capture's baseline, which lists each node at the change whose stamp
// first passes it, so the query need not scan them. A delta query stamps
// the nodes of the leftover batches it logs when it logs them, at cut+1,
// which is the cut its result takes next (logLeftovers): the node changed
// after the previous result and not after this one, and the batch, applied
// later, stamps nothing (change).
func (e *Engine) touch(node uint32) {
	s, c := &e.stamp[node], e.cut.Load()+1
	if s.Load() != c {
		s.Store(c)
	}
}

// changedSince appends to dst, in ascending order, every node whose sketch
// changed after cut, by a scan of every stamp: a delta checkpoint's plan
// (planDelta) asks it of a seal's cut. A delta query reads its dirty set
// off the capture's baseline instead (capture.dirty). The caller holds the
// quiesce write lock with the workers idle.
func (e *Engine) changedSince(cut uint64, dst []uint32) []uint32 {
	for v := range e.stamp {
		if e.stamp[v].Load() > cut {
			dst = append(dst, uint32(v))
		}
	}
	return dst
}

// wantsBase reports whether a change to node now would be its first since
// the cached query result's cut, with delta queries on: whether the
// baseline lists it in the dirty set and wants its image. Because no
// change touched the node in between, the image is the state the cached
// result observed — which is what lets a delta query rebuild an affected
// supernode's cut from its dirty members alone: a cached component's
// round aggregate is the zero sketch (its cut was certified empty), so
// XORing each dirty member's current-⊕-before diff into zero reproduces
// the component's true current cut (query.go).
// Nothing is wanted while no query could use it: before the first cached
// result (a bulk load), or with delta queries disabled. Both only change
// under the quiesce write lock with the workers idle, and node's stamp is
// written by its owner's worker or by the driving goroutine while the
// workers are idle — the caller is one of those, so no lock is needed.
func (e *Engine) wantsBase(node uint32) bool {
	res := e.queryCache.Load()
	return !e.cfg.NoDeltaQuery && res != nil && e.stamp[node].Load() <= res.cut
}

// wantsImage reports whether a change of node's bytes now would take an
// image for the baseline: the node's first change since the cached
// result's cut, or a change to a logged node, whose log converts, while
// the baseline has not overflowed. The caller holds the quiesce write
// lock with the workers idle.
func (e *Engine) wantsImage(node uint32) bool {
	return !e.capture.baseOver.Load() && (e.wantsBase(node) || e.capture.logs[node] != nil)
}

// dirtyNodes counts the nodes changed since the cached result's cut: the
// baseline's count, exact as long as it lists every such node — a cached
// result exists, delta queries are on and the list did not overflow — and
// a scan of every stamp otherwise.
func (e *Engine) dirtyNodes() uint64 {
	res := e.queryCache.Load()
	if n, ok := e.capture.listedCount(); ok && res != nil && !e.cfg.NoDeltaQuery {
		return uint64(n)
	}
	var since, dirty uint64
	if res != nil {
		since = res.cut
	}
	for v := range e.stamp {
		if e.stamp[v].Load() > since {
			dirty++
		}
	}
	return dirty
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
// It flushes the gutters to the workers and waits for every batch.
// Afterwards the workers are quiescent (pending is zero and producers are
// blocked), so the caller may read and write shard state directly until
// it releases the lock. A query drains differently: it takes the gutters'
// leftover batches itself (takeLeftover) and applies them where they cost
// least.
func (e *Engine) drainLocked() error {
	flushErr := e.buf.Flush()
	e.pending.Wait()
	if flushErr != nil {
		return flushErr
	}
	return e.err()
}

// exclusive runs f holding ckptMu and the quiesce write lock with the
// workers drained: how an operation that rewrites sketch state outside the
// apply path (a merge, a delta apply, a range install) excludes ingestion,
// queries and checkpoints.
func (e *Engine) exclusive(f func() error) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return err
	}
	return f()
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
	for i, sh := range e.shards {
		b := sh.batches.Load()
		st.ShardBatches[i] = b
		st.Batches += b
	}
	e.sketches.stats(&st)
	st.DirtyNodes = e.dirtyNodes()
	st.MemoryBytes += e.capture.memoryBytes()
	st.MemoryBytes += e.queryArenaBytes
	if e.treeDev != nil {
		st.BufferIO = e.treeDev.Stats()
		if e.tree != nil {
			// DiskBytes covers sketch slots + gutter tree, as documented.
			st.DiskBytes += e.tree.TotalBytes()
		}
	}
	if e.leaf != nil {
		st.MemoryBytes += int64(e.leaf.Capacity()) * 4 * int64(e.n)
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
		errs = append(errs, e.sketches.close())
		if e.treeDev != nil {
			errs = append(errs, e.treeDev.Close())
		}
		e.closeErr = errors.Join(errs...)
		e.quiesce.Unlock()
	})
	return e.closeErr
}
