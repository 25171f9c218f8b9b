// Package sketchext implements the graph-sketching extensions the paper
// points at in Section 3.1 — "CubeSketch may be useful for other sketching
// algorithms for problems such as edge- or vertex-connectivity, testing
// bipartiteness, and finding minimum spanning trees" — using the engine's
// linear sketches as the substrate, following Ahn, Guha and McGregor's
// constructions (the paper's references [2, 3]).
//
// Every extension is connectivity on a derived graph, so each structure is
// one core.Engine over a layered node universe: L layers over V user nodes
// make an engine over L·V nodes, where layer ℓ's copy of node v is ℓ·V+v.
// A lifted edge never crosses layers, so every component lies inside one
// layer and one query answers all layers at once. The structure gets
// whatever the engine does for free: one store, one WAL, out-of-core
// placement, delta queries, and checkpoints written and merged as one cut.
//
// Independence. The layers share one engine seed, hence the per-(round,
// column) hash seeds. stream.EdgeIndex is a bijection between edges and
// vector positions, and a lifted edge has both endpoints in one layer, so
// the layers own disjoint blocks of vector indices. Under the random-hash
// model the sketches are analysed under, hash values at distinct indices
// are independent, and a layer's buckets are a function of its own
// indices' hash values only. Layer i's buckets are therefore independent
// of the randomness that chose the forests F1…F(i−1) peeled from the
// earlier layers — the independence Ahn, Guha and McGregor's adaptive
// peel needs. Distinct seeds per layer give exactly the same guarantee
// under Mix64, so the layers need no seeds of their own.
package sketchext

import (
	"fmt"
	"io"
	"math"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// Engine seed salts, one per structure kind. Structures of two kinds over
// the same layered universe size, and a plain engine over it, refuse each
// other's checkpoints because their seeds differ.
const (
	kindKForests  = 0x6b666f7265737473 // "kforests"
	kindMSFWeight = 0x6d73667765696768 // "msfweigh"
	kindBipartite = 0x6269706172746974 // "bipartit"
)

// Layered is the engine every extension structure runs on: one
// connectivity engine over layers copies of an n-node universe, fed
// through a lift that maps a user edge to its layer copies.
type Layered struct {
	eng    *core.Engine
	n      uint32
	layers int
	lift   func(dst []stream.Edge, e stream.Edge) []stream.Edge
}

func newLayered(kind uint64, layers int, numNodes uint32, cfg core.Config, lift func([]stream.Edge, stream.Edge) []stream.Edge) (Layered, error) {
	if uint64(layers)*uint64(numNodes) > math.MaxUint32 {
		return Layered{}, fmt.Errorf("sketchext: %d layers of %d nodes exceed the node id space", layers, numNodes)
	}
	cfg.NumNodes = uint32(layers) * numNodes
	cfg.Seed ^= kind
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return Layered{}, err
	}
	return Layered{eng: eng, n: numNodes, layers: layers, lift: lift}, nil
}

// copies appends e's copies in layers [from, to) to dst.
func copies(dst []stream.Edge, e stream.Edge, n uint32, from, to int) []stream.Edge {
	for l := from; l < to; l++ {
		off := uint32(l) * n
		dst = append(dst, stream.Edge{U: off + e.U, V: off + e.V})
	}
	return dst
}

// ingest checks the whole batch against the n-node universe, then hands
// its lift to the engine as one batch. A bad update refuses the batch
// before anything is ingested, so an id in [n, layers·n) never lands in
// another layer.
func (l *Layered) ingest(ups []stream.Update, lift func([]stream.Edge, stream.Edge) []stream.Edge) error {
	for _, u := range ups {
		if e := u.Edge; e.U == e.V || e.U >= l.n || e.V >= l.n {
			return fmt.Errorf("sketchext: invalid edge (%d,%d) for %d nodes", e.U, e.V, l.n)
		}
	}
	edges := make([]stream.Edge, 0, l.layers*len(ups))
	for _, u := range ups {
		edges = lift(edges, u.Edge)
	}
	return l.eng.InsertEdges(edges)
}

// Update ingests one stream update.
func (l *Layered) Update(u stream.Update) error { return l.ingest([]stream.Update{u}, l.lift) }

// UpdateBatch ingests a batch of stream updates as one engine batch.
func (l *Layered) UpdateBatch(ups []stream.Update) error { return l.ingest(ups, l.lift) }

// components returns the number of connected components inside each
// layer, from one query: every component lies inside one layer, so its
// root does too.
func (l *Layered) components() ([]int, error) {
	rep, _, err := l.eng.ConnectedComponents()
	if err != nil {
		return nil, err
	}
	cc := make([]int, l.layers)
	for v, r := range rep {
		if r == uint32(v) {
			cc[v/int(l.n)]++
		}
	}
	return cc, nil
}

// Flush drains buffered updates into the sketches.
func (l *Layered) Flush() error { return l.eng.Drain() }

// Stats reports the engine's statistics; Updates counts lifted edges.
func (l *Layered) Stats() core.Stats { return l.eng.Stats() }

// WriteCheckpoint writes the engine's checkpoint: every layer in one cut.
func (l *Layered) WriteCheckpoint(w io.Writer) error { return l.eng.WriteCheckpoint(w) }

// MergeCheckpoint merges a checkpoint written by a structure of the same
// kind and construction.
func (l *Layered) MergeCheckpoint(r io.Reader) error { return l.eng.MergeCheckpoint(r) }

// Close drains and releases the engine.
func (l *Layered) Close() error { return l.eng.Close() }
