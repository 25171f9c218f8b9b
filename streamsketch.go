package graphzeppelin

import (
	"io"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
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
// Query consistency differs by structure: a Graph query answers over one
// engine's consistent cut even with producers mid-flight, but the
// extension structures span several engines that quiesce independently,
// so their queries (IsBipartite, Forests, Weight) should be issued only
// while no producer is mid-Apply — ingest concurrently, then pause (or
// Close sessions) before querying. Racing them is memory-safe but can
// observe different cuts per engine and return a wrong answer.
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
	// Stats reports activity counters and footprint estimates,
	// aggregated over the structure's engines.
	Stats() Stats
	// WriteCheckpoint writes the structure's full sketch state to w in a
	// structure-specific durable format (one checkpoint for Graph, the GZX1
	// multi-engine container for the extensions). Snapshots are low-stall:
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
	// ErrIncompatibleCheckpoint.
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

// sketchImpl is the contract the internal/sketchext structures share; the
// public wrappers adapt it to StreamSketch through sketchHandle.
type sketchImpl interface {
	Update(stream.Update) error
	UpdateBatch([]stream.Update) error
	Flush() error
	Stats() core.Stats
	WriteCheckpoint(io.Writer) error
	MergeCheckpoint(io.Reader) error
	Close() error
}

// sketchHandle adapts a sketchImpl to the public StreamSketch surface,
// replacing the per-wrapper Insert/Delete/Apply/Close boilerplate the
// extension types used to duplicate. Wrappers embed it and keep only
// their construction and query methods.
type sketchHandle struct {
	impl sketchImpl
}

// Apply ingests one stream update.
func (h sketchHandle) Apply(u Update) error { return h.impl.Update(u) }

// ApplyBatch ingests a batch of stream updates through the amortized bulk
// path.
func (h sketchHandle) ApplyBatch(ups []Update) error { return h.impl.UpdateBatch(ups) }

// Insert ingests the insertion of edge (u, v).
func (h sketchHandle) Insert(u, v uint32) error {
	return h.impl.Update(Update{Edge: Edge{U: u, V: v}, Type: Insert})
}

// Delete ingests the deletion of edge (u, v). The edge must currently be
// present (the streaming-model contract).
func (h sketchHandle) Delete(u, v uint32) error {
	return h.impl.Update(Update{Edge: Edge{U: u, V: v}, Type: Delete})
}

// InsertBatch ingests a batch of edge insertions.
func (h sketchHandle) InsertBatch(edges []Edge) error {
	ups := make([]Update, len(edges))
	for i, e := range edges {
		ups[i] = Update{Edge: e, Type: Insert}
	}
	return h.impl.UpdateBatch(ups)
}

// Flush forces every buffered update into the sketches.
func (h sketchHandle) Flush() error { return h.impl.Flush() }

// Stats aggregates activity counters and footprints over the structure's
// engines.
func (h sketchHandle) Stats() Stats { return h.impl.Stats() }

// WriteCheckpoint writes the structure's full sketch state (every layer
// engine) as one durable stream; see StreamSketch.WriteCheckpoint.
func (h sketchHandle) WriteCheckpoint(w io.Writer) error { return h.impl.WriteCheckpoint(w) }

// MergeCheckpoint merges a checkpoint written by an identically
// constructed structure; see StreamSketch.MergeCheckpoint.
func (h sketchHandle) MergeCheckpoint(r io.Reader) error { return h.impl.MergeCheckpoint(r) }

// Close releases the structure's engines.
func (h sketchHandle) Close() error { return h.impl.Close() }
