package graphzeppelin

import (
	"io"

	"graphzeppelin/internal/sketchext"
)

// StreamSketch is the interface every sketch structure in this package
// implements: Graph, BipartiteTester, ForestPeeler and MSFWeightSketch.
// It is the ingestion side of the paper's model — an arbitrary
// interleaving of edge insertions and deletions over a fixed node-id
// universe — factored out so drivers (cmd/gzrun, cmd/gzbench, the
// examples, user pipelines) can stream into any structure through one
// code path.
//
// All implementations are safe for concurrent use: any number of
// goroutines may Apply/ApplyBatch concurrently, and Flush/Stats/Close may
// be issued from any goroutine. Batch calls amortize per-call overhead
// (validation, lock acquisitions, buffer hand-off) across the whole
// batch; prefer ApplyBatch — or a Graph Ingestor, which batches for you —
// when ingesting at rate.
//
// Every structure is one engine: an extension with L layers runs one
// engine over L·NumNodes nodes (internal/sketchext), so IsBipartite and
// Weight answer over one consistent cut even with producers mid-flight,
// exactly like a Graph query. The one exception is the terminal
// ForestPeeler.Forests, which runs one query per layer: issue it while
// no producer is mid-Apply — racing it is memory-safe but can peel
// different cuts per layer and return a wrong answer.
//
// Structures whose updates carry extra identity (MSFWeightSketch's
// weights) treat StreamSketch updates as the unweighted default (weight
// 1) and expose their richer entry points separately.
type StreamSketch interface {
	// Apply ingests one stream update.
	Apply(Update) error
	// ApplyBatch ingests a batch of stream updates; the batch is
	// validated up front and nothing is ingested if any update is
	// invalid.
	ApplyBatch([]Update) error
	// Flush forces every buffered update into the sketches. Queries do
	// this implicitly; explicit flushes are for checkpoint-style cut
	// points.
	Flush() error
	// Stats reports activity counters and footprint estimates of the
	// structure's engine (for an extension, Updates counts lifted edges).
	Stats() Stats
	// WriteCheckpoint writes the structure's full sketch state to w in the
	// engine checkpoint format; an extension's layers are one engine,
	// so its checkpoint is one cut across layers. Snapshots are low-stall:
	// ingestion is excluded only while buffered updates drain and the
	// sketch state is sealed, then continues while the stream is written.
	// Because sketches are linear, a checkpoint written by one structure
	// is mergeable into any live structure with the same construction —
	// the shard-shipping format for distributed ingestion.
	WriteCheckpoint(w io.Writer) error
	// MergeCheckpoint XORs a checkpoint written by an identically
	// constructed structure into this one: the result summarizes the
	// mod-2 sum of both streams (for disjoint stream shards, their
	// union). Incompatible checkpoints are rejected with
	// ErrIncompatibleCheckpoint. A stream that fails after its first
	// section (ErrCorruptCheckpoint, a truncation) leaves the earlier
	// sections merged: the structure matches no stream and must be
	// discarded.
	MergeCheckpoint(r io.Reader) error
	// Close drains buffered updates, stops the structure's workers and
	// releases its resources. Afterwards every method returns ErrClosed.
	Close() error
}

// PointQuerier is the read-side counterpart of StreamSketch for
// connectivity point queries: structures that can answer "are u and v in
// the same component?" — singly or batched — implement it. Graph is the
// canonical implementation; drivers that interleave point-query traffic
// with ingestion (cmd/gzrun, serving layers) accept this interface so the
// query loop is independent of the concrete structure.
//
// Both methods share the Graph's ingest-epoch query cache: on an
// unchanged graph they are O(1) per pair, and a batch handed to
// ConnectedMany costs at most one full query no matter its length.
type PointQuerier interface {
	// Connected reports whether u and v are currently connected.
	Connected(u, v uint32) (bool, error)
	// ConnectedMany answers a batch of point queries in one pass; out[i]
	// answers pairs[i].
	ConnectedMany(pairs []Pair) ([]bool, error)
}

// Compile-time checks: every public sketch structure implements
// StreamSketch, and Graph additionally serves point queries.
var (
	_ StreamSketch = (*Graph)(nil)
	_ StreamSketch = (*BipartiteTester)(nil)
	_ StreamSketch = (*ForestPeeler)(nil)
	_ StreamSketch = (*MSFWeightSketch)(nil)
	_ PointQuerier = (*Graph)(nil)
)

// sketchHandle adapts an extension structure's layered engine to the
// public StreamSketch surface, so the wrappers keep only their
// construction and query methods.
type sketchHandle struct {
	l *sketchext.Layered
}

// Apply ingests one stream update.
func (h sketchHandle) Apply(u Update) error { return h.l.Update(u) }

// ApplyBatch ingests a batch of stream updates as one engine batch; an
// invalid update refuses the whole batch.
func (h sketchHandle) ApplyBatch(ups []Update) error { return h.l.UpdateBatch(ups) }

// Insert ingests the insertion of edge (u, v).
func (h sketchHandle) Insert(u, v uint32) error {
	return h.l.Update(Update{Edge: Edge{U: u, V: v}, Type: Insert})
}

// Delete ingests the deletion of edge (u, v). The edge must currently be
// present (the streaming-model contract).
func (h sketchHandle) Delete(u, v uint32) error {
	return h.l.Update(Update{Edge: Edge{U: u, V: v}, Type: Delete})
}

// InsertBatch ingests a batch of edge insertions.
func (h sketchHandle) InsertBatch(edges []Edge) error {
	ups := make([]Update, len(edges))
	for i, e := range edges {
		ups[i] = Update{Edge: e, Type: Insert}
	}
	return h.l.UpdateBatch(ups)
}

// Flush forces every buffered update into the sketches.
func (h sketchHandle) Flush() error { return h.l.Flush() }

// Stats reports the structure's engine statistics.
func (h sketchHandle) Stats() Stats { return h.l.Stats() }

// WriteCheckpoint writes the structure's full sketch state, every layer
// in one cut; see StreamSketch.WriteCheckpoint.
func (h sketchHandle) WriteCheckpoint(w io.Writer) error { return h.l.WriteCheckpoint(w) }

// MergeCheckpoint merges a checkpoint written by an identically
// constructed structure; see StreamSketch.MergeCheckpoint.
func (h sketchHandle) MergeCheckpoint(r io.Reader) error { return h.l.MergeCheckpoint(r) }

// Close releases the structure's engine.
func (h sketchHandle) Close() error { return h.l.Close() }
