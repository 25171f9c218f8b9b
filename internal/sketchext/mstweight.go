package sketchext

import (
	"errors"
	"fmt"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// MSFWeight computes the exact weight of a minimum spanning forest of a
// dynamic weighted graph stream with integer weights in [1, W] — the
// "minimum spanning trees" extension of Section 3.1, via the classic
// levelled-connectivity identity behind Ahn–Guha–McGregor's construction:
//
//	weight(MSF) = Σ_{i=0}^{W-1} ( cc(G_i) − cc(G_W) )
//
// where G_i is the subgraph of edges with weight ≤ i and cc counts
// connected components over all V nodes (cc(G_0) = V). Layer i−1
// summarizes G_i, so the structure has W layers and supports insertions
// and deletions of weighted edges. (AGM obtain a (1+ε)-approximation with
// O(log W / ε) geometric levels; with small integer weights one level per
// weight value makes the identity exact.)
type MSFWeight struct{ Layered }

// NewMSFWeight creates the structure for weights in [1, maxWeight].
func NewMSFWeight(maxWeight int, numNodes uint32, cfg core.Config) (*MSFWeight, error) {
	if maxWeight < 1 {
		return nil, errors.New("sketchext: maxWeight must be at least 1")
	}
	// An unweighted update is weight 1, the lightest level, hence present
	// in every G_i — this is what makes MSFWeight drivable through the
	// generic StreamSketch interface.
	l, err := newLayered(kindMSFWeight, maxWeight, numNodes, cfg, func(dst []stream.Edge, e stream.Edge) []stream.Edge {
		return copies(dst, e, numNodes, 0, maxWeight)
	})
	if err != nil {
		return nil, err
	}
	return &MSFWeight{l}, nil
}

// WeightedUpdate ingests a weighted edge insertion or deletion. The
// weight is part of the edge's identity: deleting requires the same
// weight the insertion used (the weighted-stream contract).
func (m *MSFWeight) WeightedUpdate(u stream.Update, weight int) error {
	if weight < 1 || weight > m.layers {
		return fmt.Errorf("sketchext: weight %d outside [1, %d]", weight, m.layers)
	}
	// The edge belongs to every level G_i with i >= weight.
	return m.ingest([]stream.Update{u}, func(dst []stream.Edge, e stream.Edge) []stream.Edge {
		return copies(dst, e, m.n, weight-1, m.layers)
	})
}

// Insert ingests the insertion of edge (u, v) with the given weight.
func (m *MSFWeight) Insert(u, v uint32, weight int) error {
	return m.WeightedUpdate(stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Insert}, weight)
}

// Delete ingests the deletion of edge (u, v) previously inserted with the
// given weight.
func (m *MSFWeight) Delete(u, v uint32, weight int) error {
	return m.WeightedUpdate(stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Delete}, weight)
}

// Weight returns the exact MSF weight of the current graph from one
// query over every level. Ingestion may continue afterwards.
func (m *MSFWeight) Weight() (int64, error) {
	cc, err := m.components()
	if err != nil {
		return 0, err
	}
	top := cc[m.layers-1]
	total := int64(int(m.n) - top) // the i = 0 term: cc(G_0) = V
	for _, c := range cc[:m.layers-1] {
		total += int64(c - top)
	}
	return total, nil
}
