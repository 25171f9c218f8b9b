package graphzeppelin

import (
	"io"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/sketchext"
)

// ErrIncompatibleCheckpoint is returned (wrapped; compare with errors.Is)
// when merging a checkpoint whose construction parameters differ from the
// target structure's.
var ErrIncompatibleCheckpoint = core.ErrIncompatibleCheckpoint

// ErrCorruptCheckpoint is returned (wrapped; compare with errors.Is) when
// a checkpoint stream is malformed or a section fails its checksum.
var ErrCorruptCheckpoint = core.ErrCorruptCheckpoint

// ErrDeltaCheckpoint is returned (wrapped; compare with errors.Is) when a
// delta checkpoint stream is handed to an operation that needs a
// self-contained checkpoint (restore, merge): a delta only has meaning
// applied on top of its exact base state via ApplyDeltaCheckpoint.
var ErrDeltaCheckpoint = core.ErrDeltaCheckpoint

// ErrCheckpointChain is returned (wrapped; compare with errors.Is) by
// ApplyDeltaCheckpoint when the delta does not chain onto this Graph's
// current checkpoint state — wrong lineage, stale base, or out-of-order
// application. Fall back to a full checkpoint.
var ErrCheckpointChain = core.ErrCheckpointChain

// WriteCheckpoint drains buffered updates and writes the Graph's full
// sketch state to w in the sectioned checkpoint format (per-shard-pool parallel
// encode, per-section CRC-32C checksums, a footer enabling parallel
// restore). The snapshot is low-stall: ingestion is excluded only for the
// drain and the snapshot seal — in-RAM sketches are copied shard-at-a-time
// into reusable arenas, on-disk sketches are captured copy-on-write while
// the scan streams — so concurrent producers keep running while the
// checkpoint is written (see Stats.CheckpointStallNanos).
//
// Because sketches are linear, checkpoints with equal parameters are
// mergeable (see MergeCheckpoint), so checkpoints double as the
// shard-shipping format for distributed ingestion.
func (g *Graph) WriteCheckpoint(w io.Writer) error {
	return g.engine.WriteCheckpoint(w)
}

// SaveCheckpoint writes a checkpoint to a file, crash-atomically: the
// bytes land in a temporary file that is fsynced and renamed over path,
// so a crash mid-write leaves the previous checkpoint intact. With
// WithWAL enabled, a successful save also truncates the log prefix the
// checkpoint covers.
func (g *Graph) SaveCheckpoint(path string) error {
	return g.engine.WriteCheckpointFile(path)
}

// MergeCheckpoint XORs a checkpoint into this Graph: the result summarizes
// the mod-2 sum of both streams (for disjoint stream shards, their union).
// The checkpoint must have the same node count, seed, columns and rounds
// (ErrIncompatibleCheckpoint otherwise, naming both parameter sets). The
// merge streams serialized slots straight into the sketch arenas with zero
// per-sketch allocations.
func (g *Graph) MergeCheckpoint(r io.Reader) error {
	return g.engine.MergeCheckpoint(r)
}

// CheckpointID returns the chain id of the Graph's current checkpoint
// state: the id minted by the last seal, adopted from the last restore,
// or advanced by the last ApplyDeltaCheckpoint (0 before any of those).
// Pass it as the baseID of a later WriteDeltaCheckpoint on the *source*
// Graph to receive a delta this Graph can apply.
func (g *Graph) CheckpointID() uint64 { return g.engine.Stats().LastCheckpointID }

// WriteDeltaCheckpoint seals and streams a checkpoint that, when
// possible, is a sparse delta checkpoint against this Graph's earlier seal
// baseID: only the nodes whose sketches changed since that seal are
// shipped, and a consumer holding the base state advances to this state
// with ApplyDeltaCheckpoint. It reports which kind was written — the
// seal transparently falls back to a full checkpoint when baseID is 0 or
// unknown, when delta checkpoints are disabled, or when the dirty
// fraction exceeds WithDeltaCheckpointThreshold. Unlike WriteCheckpoint,
// it never truncates the write-ahead log: the log past the base is what
// recovers a lost or corrupt delta (see RecoverChain), so only a durably
// landed *full* checkpoint (or CompactCheckpoints) should shorten it.
func (g *Graph) WriteDeltaCheckpoint(w io.Writer, baseID uint64) (delta bool, err error) {
	return g.engine.WriteDeltaCheckpoint(w, baseID)
}

// ApplyDeltaCheckpoint advances this Graph from a delta's base state to
// its tip by replacing the shipped nodes' sketches. The Graph must hold
// exactly the base state (same lineage, same base id and WAL coverage) —
// ErrCheckpointChain otherwise, with no state changed; corrupt or
// truncated streams are rejected with the body fully validated before
// any installation, so a failed apply never leaves partial state.
func (g *Graph) ApplyDeltaCheckpoint(r io.Reader) error {
	return g.engine.ApplyDeltaCheckpoint(r, nil)
}

// CompactCheckpoints folds a full base checkpoint file plus an ordered
// delta checkpoint chain into one full checkpoint at outPath (written with the
// crash-safe temp-fsync-rename discipline). The compacted file carries
// the chain tip's WAL coverage and metadata, so once it has durably
// replaced the chain the delta files can be deleted and the log
// truncated through the tip — this is what bounds chain length and log
// growth for deployments that persist deltas.
func CompactCheckpoints(outPath, basePath string, deltaPaths []string, opts ...Option) error {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return core.CompactCheckpoints(outPath, basePath, deltaPaths, cfg)
}

// RecoverChain is Recover over a delta checkpoint chain: the full base
// checkpoint plus ordered delta files, then the write-ahead log suffix
// above whatever prefix of the chain applied. A missing or corrupt delta
// file is not fatal — deltas never truncate the log, so replay covers
// everything past the last good chain state. The result is bit-identical
// to a Graph that never crashed, exactly as for Recover.
func RecoverChain(numNodes uint32, basePath string, deltaPaths []string, opts ...Option) (*Graph, *Recovery, error) {
	cfg := core.Config{NumNodes: numNodes}
	for _, o := range opts {
		o(&cfg)
	}
	eng, rec, err := core.RecoverChain(basePath, deltaPaths, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{engine: eng, numNodes: eng.Config().NumNodes}, rec, nil
}

// ReadCheckpoint restores a Graph from a full checkpoint stream, reading
// front to back; opts control deployment choices (workers,
// buffering, disk placement) while the sketch parameters come from the
// checkpoint. For checkpoint files prefer OpenCheckpoint, which restores
// sections in parallel.
func ReadCheckpoint(r io.Reader, opts ...Option) (*Graph, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := core.ReadCheckpoint(r, cfg)
	if err != nil {
		return nil, err
	}
	return &Graph{engine: eng, numNodes: eng.Config().NumNodes}, nil
}

// OpenCheckpoint restores a Graph from a full checkpoint file, decoded in
// parallel: the footer locates every section, and one goroutine per shard
// worker verifies and installs whole sections (with coalesced range writes
// in disk mode).
func OpenCheckpoint(path string, opts ...Option) (*Graph, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := core.OpenCheckpoint(path, cfg)
	if err != nil {
		return nil, err
	}
	return &Graph{engine: eng, numNodes: eng.Config().NumNodes}, nil
}

// LoadCheckpoint restores a Graph from a checkpoint file. It is
// OpenCheckpoint under its historical name.
func LoadCheckpoint(path string, opts ...Option) (*Graph, error) {
	return OpenCheckpoint(path, opts...)
}

// Recovery reports what Recover replayed beyond the checkpoint; see
// core.Recovery for field meanings.
type Recovery = core.Recovery

// Recover rebuilds a Graph after a crash from its durable state: the
// checkpoint at checkpointPath (an empty or absent path starts from an
// empty graph over numNodes ids) plus the write-ahead log suffix above
// the checkpoint's covered position, replayed through the normal ingest
// path. opts must include the same WithWAL directory the crashed Graph
// ran with; when a checkpoint exists its sketch parameters win, exactly
// as for OpenCheckpoint. The result is equivalent to a Graph that
// ingested every logged batch and never crashed — identical sketches,
// identical checkpoint bytes.
//
// The usual pairing is WithWAL + periodic SaveCheckpoint while running,
// then Recover at startup:
//
//	g, rec, err := graphzeppelin.Recover(1024, "state/ckpt.gze", graphzeppelin.WithWAL("state/wal"))
//	...
//	log.Printf("replayed %d batches (%d updates)", rec.Records, rec.Updates)
func Recover(numNodes uint32, checkpointPath string, opts ...Option) (*Graph, *Recovery, error) {
	cfg := core.Config{NumNodes: numNodes}
	for _, o := range opts {
		o(&cfg)
	}
	eng, rec, err := core.Recover(checkpointPath, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{engine: eng, numNodes: eng.Config().NumNodes}, rec, nil
}

// BipartiteTester tests bipartiteness of a dynamic graph stream in small
// space via the double-cover reduction (the Section 3.1 extension
// direction; see internal/sketchext). It implements StreamSketch —
// Apply/ApplyBatch/Insert/Delete/Flush/Stats come from the shared handle
// — plus its own IsBipartite query.
type BipartiteTester struct {
	sketchHandle
	b *sketchext.Bipartite
}

// NewBipartiteTester creates a tester over node ids [0, numNodes).
func NewBipartiteTester(numNodes uint32, opts ...Option) (*BipartiteTester, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	b, err := sketchext.NewBipartite(numNodes, cfg)
	if err != nil {
		return nil, err
	}
	return &BipartiteTester{sketchHandle: sketchHandle{impl: b}, b: b}, nil
}

// IsBipartite reports whether the current graph is bipartite (w.h.p.).
// The base graph and its double cover quiesce independently, so call it
// with no producer mid-Apply (see the StreamSketch consistency note).
func (t *BipartiteTester) IsBipartite() (bool, error) { return t.b.IsBipartite() }

// ForestPeeler maintains k independent sketch layers and peels k
// edge-disjoint spanning forests — Ahn, Guha and McGregor's
// k-edge-connectivity certificate (the Section 3.1 extension direction).
// It implements StreamSketch; every ingested update lands in all k
// layers.
type ForestPeeler struct {
	sketchHandle
	kf *sketchext.KForests
}

// NewForestPeeler creates a peeler with k layers over [0, numNodes).
func NewForestPeeler(k int, numNodes uint32, opts ...Option) (*ForestPeeler, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	kf, err := sketchext.NewKForests(k, numNodes, cfg)
	if err != nil {
		return nil, err
	}
	return &ForestPeeler{sketchHandle: sketchHandle{impl: kf}, kf: kf}, nil
}

// Forests peels and returns k edge-disjoint spanning forests. Terminal:
// peel once, after the stream.
func (p *ForestPeeler) Forests() ([][]Edge, error) { return p.kf.Forests() }

// EdgeConnectivity returns min(k, λ(G)) exactly, by Stoer–Wagner on the
// peeled certificate.
func (p *ForestPeeler) EdgeConnectivity() (int, error) { return p.kf.EdgeConnectivity() }

// MSFWeightSketch computes the exact minimum-spanning-forest weight of a
// dynamic weighted graph stream with integer weights in [1, maxWeight],
// via levelled connectivity sketches (the Section 3.1 "minimum spanning
// trees" extension; see internal/sketchext). It implements StreamSketch
// with unweighted updates treated as weight 1; the weighted entry points
// below carry the real weights.
type MSFWeightSketch struct {
	sketchHandle
	m *sketchext.MSFWeight
}

// NewMSFWeightSketch creates the structure over node ids [0, numNodes).
func NewMSFWeightSketch(maxWeight int, numNodes uint32, opts ...Option) (*MSFWeightSketch, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	m, err := sketchext.NewMSFWeight(maxWeight, numNodes, cfg)
	if err != nil {
		return nil, err
	}
	return &MSFWeightSketch{sketchHandle: sketchHandle{impl: m}, m: m}, nil
}

// Insert ingests a weighted edge insertion. (It shadows the unweighted
// StreamSketch helper; unweighted Apply treats updates as weight 1.)
func (s *MSFWeightSketch) Insert(u, v uint32, weight int) error { return s.m.Insert(u, v, weight) }

// Delete ingests a weighted edge deletion (same weight as its insertion).
func (s *MSFWeightSketch) Delete(u, v uint32, weight int) error { return s.m.Delete(u, v, weight) }

// Weight returns the exact MSF weight; ingestion may continue
// afterwards. The weight levels quiesce independently, so call it with
// no producer mid-Apply (see the StreamSketch consistency note).
func (s *MSFWeightSketch) Weight() (int64, error) { return s.m.Weight() }
