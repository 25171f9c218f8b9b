// Package graphzeppelin computes the connected components of dynamic graph
// streams in small space, reproducing the system of "GraphZeppelin:
// Storage-Friendly Sketching for Connected Components on Dynamic Graph
// Streams" (SIGMOD 2022).
//
// A Graph ingests an arbitrary interleaving of edge insertions and
// deletions over a fixed node-id universe and answers spanning-forest /
// connected-component queries at any point. Internally each node holds a
// stack of CubeSketch l0-samplers (O(log³V) bits per node, O(V·log³V)
// total — asymptotically far below an explicit representation of a dense
// graph), updates are buffered per destination node for locality and I/O
// efficiency, and queries emulate Boruvka's algorithm over the sketches.
//
// The API is batch-first and multi-producer: any number of goroutines may
// ingest concurrently through Apply/ApplyBatch/InsertBatch, or — better —
// through per-producer Ingestor sessions (Graph.NewIngestor), whose
// private buffers amortize every per-call cost down the whole pipeline.
// Queries, checkpoints and Close may also be issued from any goroutine;
// they quiesce ingestion internally and answer over a consistent cut.
// Graph, BipartiteTester, ForestPeeler and MSFWeightSketch all implement
// the shared StreamSketch interface, so one driver loop can feed any of
// them.
//
// Ingestion is sharded: nodes are partitioned by node % shards, every
// shard's sketches live in one contiguous arena owned exclusively by that
// shard's Graph Worker goroutine, and buffered batches reach the workers
// through per-shard lock-free queues whose pushes are serialized by a
// per-shard mutex taken once per batch. The leaf gutters are lock-striped
// so concurrent producers rarely contend. WithShards (default 1) sets the
// apply-side parallelism: one Graph Worker per shard.
//
// Out-of-core mode (WithSketchesOnDisk) is tiered: node sketches live in
// block-sized group slots on the device, batches apply to decoded groups
// in a sharded write-back cache (WithCacheBytes, WithNodesPerGroup), and
// gutter flushes align to the same groups — so steady-state ingest I/O is
// paid per group residency, not per batch, and queries are served from
// cached groups with zero device reads. See the README's "Out-of-core
// architecture".
//
// Queries are epoch-cached, incrementally maintained, and lazily
// materialized: while the graph is unchanged, every query is answered from
// the cached result (Connected/ConnectedMany point queries are O(1) on a
// quiet graph); after a small delta, the next query re-solves only the
// components whose nodes' sketches changed — tracked by per-node change
// stamps on the apply path — and carries the rest of the cached
// forest over (WithDeltaQueries, on by default; above 10% dirty nodes the
// query falls back to a from-scratch run).
// A from-scratch query runs the Boruvka emulation, materializing each
// round's supernode sketches on demand, with candidate sampling fanned
// across the shard worker pool, and — out of core — one sequential scan
// per round. See the README's "Query cost model" for the full picture.
//
// Basic use:
//
//	g, err := graphzeppelin.New(1024)
//	...
//	g.Insert(1, 2)
//	g.Delete(1, 2)
//	forest, err := g.SpanningForest()
//	comps, n, err := g.ConnectedComponents()
//	g.Close()
//
// High-rate use, N producer goroutines:
//
//	ing, err := g.NewIngestor()  // one per producer
//	...
//	ing.Insert(1, 2)             // buffers; flushes as the buffer fills
//	ing.ApplyBatch(updates)      // bulk path
//	ing.Close()                  // flush the tail
//
// The answer is correct with high probability (the failure probability is
// polynomially small in V; Section 6.3 of the paper — and this
// reproduction's test suite — observed zero failures).
package graphzeppelin

import (
	"fmt"
	"sync"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// ErrClosed is returned by every operation on a closed Graph, Ingestor or
// extension structure. Compare with errors.Is: query errors arrive
// wrapped.
var ErrClosed = core.ErrClosed

// ErrQueryFailed is returned (wrapped; compare with errors.Is) when a
// query exhausts the per-node sketch rounds before every component's
// spanning tree is certified complete — in practice only when WithRounds
// is set below the default depth. SpanningForest still returns the
// partial forest it recovered alongside this error.
var ErrQueryFailed = core.ErrQueryFailed

// Edge is an undirected edge between two node ids.
type Edge = stream.Edge

// Pair is a pair of node ids for batched connectivity point queries
// (Graph.ConnectedMany).
type Pair = stream.Pair

// Update is one stream element: an edge plus insert/delete.
type Update = stream.Update

// Update types re-exported for stream construction.
const (
	Insert = stream.Insert
	Delete = stream.Delete
)

// Buffering selects the ingestion buffering structure.
type Buffering = core.BufferingKind

// Buffering structures.
const (
	// LeafGutters buffers updates in one in-RAM gutter per node
	// (default; the paper's choice when RAM is plentiful).
	LeafGutters = core.BufferLeaf
	// GutterTree buffers updates in a disk-backed buffer tree (the
	// paper's choice when gutters exceed RAM).
	GutterTree = core.BufferTree
	// Unbuffered applies each update synchronously (slow; for tests and
	// the f→0 ablation).
	Unbuffered = core.BufferNone
)

// Option customizes a Graph.
type Option func(*core.Config)

// WithSeed fixes the sketch-hashing seed, making the Graph's random
// choices reproducible.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithShards sets the number of ingest shards (default 1), each applied by
// its own Graph Worker goroutine. Nodes are partitioned by node % shards
// (out of core, whole node groups by group % shards) and each shard's
// nodes are owned by one Graph Worker for the Graph's whole life, so
// shards bound both the ingest parallelism and the per-shard arena size.
// Values above the node count are clamped.
func WithShards(n int) Option {
	return func(c *core.Config) { c.Shards = n }
}

// WithBuffering selects the buffering structure (default LeafGutters).
func WithBuffering(k Buffering) Option {
	return func(c *core.Config) { c.Buffering = k }
}

// WithBufferFactor sets the paper's gutter-size factor f: each leaf gutter
// holds f × (node-sketch bytes) of buffered updates (default 0.5).
func WithBufferFactor(f float64) Option {
	return func(c *core.Config) { c.BufferFactor = f }
}

// WithSketchesOnDisk stores the node sketches on disk in dir instead of
// RAM — the paper's out-of-core mode for graphs whose sketches exceed
// memory. An empty dir keeps the data in an accounting in-memory device,
// which still exercises the block-I/O code paths.
func WithSketchesOnDisk(dir string) Option {
	return func(c *core.Config) {
		c.SketchesOnDisk = true
		c.Dir = dir
	}
}

// WithDir sets the directory used for any disk-backed structures.
func WithDir(dir string) Option {
	return func(c *core.Config) { c.Dir = dir }
}

// WithCacheBytes budgets the out-of-core tier's sharded write-back cache
// of decoded sketch groups (default 32 MiB). Batches apply to cached
// groups in RAM; dirty groups are written back with one coalesced device
// access on eviction or flush, so ingest I/O is paid per group residency,
// not per batch. Every positive budget keeps at least one group per shard
// resident, so the smallest one (1) evicts on nearly every group switch.
// New refuses a negative budget with sketches on disk. No effect in RAM
// mode.
func WithCacheBytes(n int64) Option {
	return func(c *core.Config) { c.CacheBytes = n }
}

// WithNodesPerGroup sets the node-group cardinality of the on-disk sketch
// layout: group slots hold this many consecutive node sketches, gutter
// flushes align to the same groups, and the write-back cache fills and
// spills whole groups. The default sizes groups toward the device block
// (the paper's max{1, B / sketch bytes}). No effect in RAM mode.
func WithNodesPerGroup(n int) Option {
	return func(c *core.Config) { c.NodesPerGroup = n }
}

// WithDeltaQueries enables or disables incremental query maintenance
// (default enabled). When on, a query that misses the epoch cache but has
// a previous cached result reuses it: the apply path stamps each node whose
// sketch changes, so the nodes changed since that result are known, the
// untouched components' forest edges carry over wholesale, and only the
// components containing dirty nodes are re-solved from sketches — so a
// query after a small delta costs sketch work proportional to the
// affected components, not the graph. When more than 10% of the nodes
// are dirty (or after a checkpoint merge, which can change any sketch) —
// where re-solving most of the graph through the delta path would cost
// more than the from-scratch run it shadows — the query falls back to
// the from-scratch Boruvka run; the answer contract is identical either
// way (see Stats.DeltaQueries, Stats.DeltaFallbacks, Stats.DirtyNodes).
// Disabling restores the pre-incremental all-or-nothing cache, kept for
// ablation.
func WithDeltaQueries(enabled bool) Option {
	return func(c *core.Config) { c.NoDeltaQuery = !enabled }
}

// WithDeltaCheckpointThreshold sets the delta checkpoint fallback
// threshold: a checkpoint sealed against an earlier base (see
// Graph.WriteDeltaCheckpoint) ships as a sparse delta checkpoint only
// while at most frac of all nodes were dirtied since that base (default
// 0.20) — above it the delta ships nearly a full checkpoint's bytes yet
// still needs its base and every earlier link to restore, so the seal
// transparently falls back to a full checkpoint, which starts a new chain.
// Both kinds seal with the same stall: neither copies a sketch while
// ingestion is excluded. Negative disables delta checkpoints entirely
// (every seal is full, kept for ablation).
func WithDeltaCheckpointThreshold(frac float64) Option {
	return func(c *core.Config) { c.DeltaCheckpointThreshold = frac }
}

// WithColumns overrides the per-sketch column count log(1/δ) (default 7).
func WithColumns(cols int) Option {
	return func(c *core.Config) { c.Columns = cols }
}

// WithRounds overrides the node-sketch depth (default ⌈log2 V⌉+2).
func WithRounds(r int) Option {
	return func(c *core.Config) { c.Rounds = r }
}

// FsyncPolicy selects how eagerly the write-ahead log syncs to stable
// storage; see the policy constants.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies for WithFsyncPolicy.
const (
	// FsyncBatch (default) syncs before every ingest call returns: an
	// acknowledged batch is on stable storage, a crash loses nothing
	// acked. Group commit batches concurrent producers into shared
	// fsyncs.
	FsyncBatch = wal.FsyncBatch
	// FsyncInterval syncs on a background timer (WithFsyncInterval,
	// default 50ms): near-RAM ingest speed, a crash loses at most the
	// last interval.
	FsyncInterval = wal.FsyncInterval
	// FsyncOff never syncs; a crash keeps whatever the OS already wrote
	// back. Recovery still lands on an exact prefix of the stream.
	FsyncOff = wal.FsyncOff
)

// ParseFsyncPolicy parses "batch", "interval" or "off" (flag values).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// WithWAL enables continuous durability: every accepted ingest batch is
// appended to a segmented write-ahead log in dir before it enters the
// sketch pipeline, and Recover rebuilds a Graph that crashed mid-stream
// from its latest checkpoint plus the log — bit-identical to one that
// never crashed. SaveCheckpoint/WriteCheckpoint record the log position
// they cover and truncate the log behind it, bounding both log size and
// recovery time. An empty dir keeps the log on in-memory devices
// (useful in tests; durable only for the process lifetime).
func WithWAL(dir string) Option {
	return func(c *core.Config) {
		c.WAL = true
		c.WALDir = dir
	}
}

// WithFsyncPolicy sets the write-ahead log's durability discipline
// (default FsyncBatch). Only meaningful together with WithWAL.
func WithFsyncPolicy(p FsyncPolicy) Option {
	return func(c *core.Config) { c.WALFsync = p }
}

// WithFsyncInterval sets the FsyncInterval timer period (default 50ms).
func WithFsyncInterval(d time.Duration) Option {
	return func(c *core.Config) { c.WALFsyncInterval = d }
}

// WithWALSegmentBytes sets the log's segment rotation threshold (default
// 8 MiB). Smaller segments truncate at finer grain after checkpoints;
// larger ones touch fewer files.
func WithWALSegmentBytes(n int64) Option {
	return func(c *core.Config) { c.WALSegmentBytes = n }
}

// WithGutterTreeConfig sizes the gutter tree used with GutterTree
// buffering.
func WithGutterTreeConfig(fanout, bufferRecords, leafRecords int) Option {
	return func(c *core.Config) {
		c.Tree = gutter.TreeConfig{
			Fanout:        fanout,
			BufferRecords: bufferRecords,
			LeafRecords:   leafRecords,
		}
	}
}

// Stats reports a Graph's activity counters and footprint; see
// core.Stats for field meanings.
type Stats = core.Stats

// Graph is a dynamic-graph-stream connectivity sketch over a fixed
// universe of node ids [0, NumNodes). It is safe for fully concurrent
// use: any number of producer goroutines may ingest at once (ideally each
// through its own Ingestor), and queries may be interleaved from any
// goroutine — they see every update that reached the Graph before the
// query began. An update reaches the Graph when its Apply/ApplyBatch
// call returns; an Ingestor-buffered update reaches it only once its
// session flushes (implicitly on fill, explicitly via Ingestor.Flush or
// Close).
type Graph struct {
	engine   *core.Engine
	numNodes uint32

	// valMu guards the optional stream validator, the one piece of
	// graph-level state shared by all producers.
	valMu    sync.Mutex
	validate *stream.Validator
}

// New creates a Graph over node ids [0, numNodes).
func New(numNodes uint32, opts ...Option) (*Graph, error) {
	cfg := core.Config{NumNodes: numNodes}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Graph{engine: eng, numNodes: numNodes}, nil
}

// NumNodes returns the node-universe size.
func (g *Graph) NumNodes() uint32 { return g.numNodes }

// EnableValidation turns on stream well-formedness checking: duplicate
// inserts and deletes of absent edges are rejected instead of silently
// corrupting the sketch. Costs O(E) extra memory and serializes producers
// through the validator's lock; intended for debugging. Call it before
// ingestion starts.
func (g *Graph) EnableValidation() {
	if g.validate == nil {
		g.validate = &stream.Validator{}
	}
}

// validated runs ups through the stream validator and, if it accepts them
// all, hands them to the engine with send. A refusal, the validator's or
// the engine's, undoes what the validator recorded of ups, so it holds
// exactly the updates the engine accepted. The validator's lock is held
// across send: no other producer's updates enter it between a batch and
// its undo.
func (g *Graph) validated(ups []Update, send func() error) error {
	g.valMu.Lock()
	defer g.valMu.Unlock()
	for i, u := range ups {
		if err := g.validate.Apply(u); err != nil {
			g.validate.Undo(ups[:i])
			return err
		}
	}
	if err := send(); err != nil {
		g.validate.Undo(ups)
		return err
	}
	return nil
}

// Insert ingests the insertion of edge (u, v).
func (g *Graph) Insert(u, v uint32) error {
	return g.Apply(Update{Edge: Edge{U: u, V: v}, Type: Insert})
}

// Delete ingests the deletion of edge (u, v). The edge must currently be
// present (the streaming-model contract); with validation enabled a
// violating delete returns an error.
func (g *Graph) Delete(u, v uint32) error {
	return g.Apply(Update{Edge: Edge{U: u, V: v}, Type: Delete})
}

// Apply ingests one stream update. Safe for concurrent use; per-update
// calls pay an engine read-lock each, so high-rate producers should
// prefer ApplyBatch or an Ingestor.
func (g *Graph) Apply(u Update) error {
	if g.validate == nil {
		return g.engine.Update(u)
	}
	return g.validated([]Update{u}, func() error { return g.engine.Update(u) })
}

// ApplyBatch ingests a batch of stream updates through the amortized bulk
// path: one validation pass, one engine entry, one grouped hand-off to
// the buffering layer. The batch is validated up front — if any update is
// invalid, nothing is ingested.
func (g *Graph) ApplyBatch(ups []Update) error {
	if g.validate == nil {
		return g.engine.UpdateBatch(ups)
	}
	return g.validated(ups, func() error { return g.engine.UpdateBatch(ups) })
}

// InsertBatch ingests a batch of edge insertions through the bulk path.
func (g *Graph) InsertBatch(edges []Edge) error {
	if g.validate == nil {
		return g.engine.InsertEdges(edges)
	}
	ups := make([]Update, len(edges))
	for i, e := range edges {
		ups[i] = Update{Edge: e, Type: Insert}
	}
	return g.validated(ups, func() error { return g.engine.InsertEdges(edges) })
}

// Flush forces every buffered update into the sketches and waits for the
// Graph Workers to apply them. Queries do this implicitly; explicit
// flushes mark checkpoint-style cut points. Note this does not flush
// Ingestor session buffers — each producer flushes (or closes) its own.
func (g *Graph) Flush() error { return g.engine.Drain() }

// SpanningForest flushes buffered updates and returns the edges of a
// spanning forest of the current graph. Ingestion may continue afterwards.
//
// If the graph has not changed since the last full query (no Apply /
// ApplyBatch / Ingestor flush reached the Graph), the forest is served
// from the query cache without touching the sketches.
//
// On a failed query (errors.Is(err, ErrQueryFailed)) the partial forest
// recovered before the sketch rounds ran out is returned alongside the
// error: its edges are genuine and acyclic, but some pair of connected
// nodes may remain in different trees. Partial results are never cached.
func (g *Graph) SpanningForest() ([]Edge, error) {
	forest, err := g.engine.SpanningForest()
	if err != nil {
		return forest, fmt.Errorf("graphzeppelin: %w", err)
	}
	return forest, nil
}

// ConnectedComponents returns a component representative for every node
// and the number of components. Served from the query cache (no sketch
// work) while the graph is unchanged.
func (g *Graph) ConnectedComponents() (rep []uint32, count int, err error) {
	rep, count, err = g.engine.ConnectedComponents()
	if err != nil {
		return rep, count, fmt.Errorf("graphzeppelin: %w", err)
	}
	return rep, count, nil
}

// ErrNodeOutOfRange is returned by Connected and ConnectedMany for node
// ids at or beyond NumNodes.
var ErrNodeOutOfRange = fmt.Errorf("graphzeppelin: node out of range")

// Connected reports whether u and v are currently in the same component.
// Out-of-range nodes are rejected with ErrNodeOutOfRange before any query
// work runs; on a closed Graph the error satisfies errors.Is(err,
// ErrClosed).
//
// Point queries are cheap when the graph is quiet: the first query after
// an update runs the full Boruvka emulation, and every Connected call
// until the next update answers in O(1) from the cached component
// representatives (see Stats.QueryCacheHits).
func (g *Graph) Connected(u, v uint32) (bool, error) {
	if u >= g.numNodes || v >= g.numNodes {
		return false, fmt.Errorf("%w: (%d,%d) vs %d nodes", ErrNodeOutOfRange, u, v, g.numNodes)
	}
	ok, err := g.engine.Connected(u, v)
	if err != nil {
		return false, fmt.Errorf("graphzeppelin: %w", err)
	}
	return ok, nil
}

// ConnectedMany answers a batch of connectivity point queries: out[i]
// reports whether pairs[i].U and pairs[i].V are currently in the same
// component. The whole batch is validated up front (ErrNodeOutOfRange
// before any query work) and costs at most one full query — none when the
// graph is unchanged since the last one — plus O(1) per pair, so it is
// the preferred shape for serving heavy point-query traffic.
func (g *Graph) ConnectedMany(pairs []Pair) ([]bool, error) {
	for _, p := range pairs {
		if p.U >= g.numNodes || p.V >= g.numNodes {
			return nil, fmt.Errorf("%w: (%d,%d) vs %d nodes", ErrNodeOutOfRange, p.U, p.V, g.numNodes)
		}
	}
	out, err := g.engine.ConnectedMany(pairs)
	if err != nil {
		return nil, fmt.Errorf("graphzeppelin: %w", err)
	}
	return out, nil
}

// Stats returns activity counters and footprint estimates.
func (g *Graph) Stats() Stats { return g.engine.Stats() }

// Close drains buffered updates, stops the worker pool and releases disk
// resources. Idempotent and safe to call from any goroutine; afterwards
// every operation on the Graph or its Ingestors returns ErrClosed.
func (g *Graph) Close() error { return g.engine.Close() }
