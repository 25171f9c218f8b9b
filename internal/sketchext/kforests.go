package sketchext

import (
	"errors"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// KForests peels k edge-disjoint spanning forests F1…Fk of the stream:
// F1 spans G, F2 spans G−F1, and so on. Their union is Ahn, Guha and
// McGregor's k-edge-connectivity certificate: the graph is k-edge-
// connected iff the certificate is, and cuts of value < k are preserved
// exactly. Every update lands in all k layers; peeling works because
// sketches are linear: deleting a forest from the deeper layers is just
// toggling its edges there.
type KForests struct{ Layered }

// NewKForests creates a k-forest structure over node ids [0, numNodes).
func NewKForests(k int, numNodes uint32, cfg core.Config) (*KForests, error) {
	if k < 1 {
		return nil, errors.New("sketchext: k must be at least 1")
	}
	l, err := newLayered(kindKForests, k, numNodes, cfg, func(dst []stream.Edge, e stream.Edge) []stream.Edge {
		return copies(dst, e, numNodes, 0, k)
	})
	if err != nil {
		return nil, err
	}
	return &KForests{l}, nil
}

// Forests peels and returns the k edge-disjoint spanning forests, one
// query per layer: step i keeps the query's layer-i forest and deletes it
// from layers i+1…k as one batch. The deeper layers are consumed by the
// peel, so Forests is a terminal query: further Updates after it would
// summarize G minus the peeled forests there. Peel once, at the end, as
// the AGM construction does. The k steps are separate engine cuts, so
// call it with no producer mid-update.
func (kf *KForests) Forests() ([][]stream.Edge, error) {
	forests := make([][]stream.Edge, kf.layers)
	for i := range forests {
		all, err := kf.eng.SpanningForest()
		if err != nil {
			return nil, err
		}
		lo, hi := uint32(i)*kf.n, uint32(i+1)*kf.n
		var peel []stream.Edge
		for _, e := range all {
			if e.U >= lo && e.U < hi {
				f := stream.Edge{U: e.U - lo, V: e.V - lo}
				forests[i] = append(forests[i], f)
				peel = copies(peel, f, kf.n, i+1, kf.layers)
			}
		}
		if err := kf.eng.InsertEdges(peel); err != nil {
			return nil, err
		}
	}
	return forests, nil
}

// Certificate returns the union of the k peeled forests: a sparse
// (≤ k·(V−1) edge) subgraph preserving all cuts up to value k.
func (kf *KForests) Certificate() ([]stream.Edge, error) {
	forests, err := kf.Forests()
	if err != nil {
		return nil, err
	}
	var cert []stream.Edge
	for _, f := range forests {
		cert = append(cert, f...)
	}
	return cert, nil
}

// EdgeConnectivity returns min(k, λ) where λ is the global edge
// connectivity of the graph restricted to its non-isolated nodes: the
// peeled certificate's min cut, computed exactly with Stoer–Wagner. A
// return value of k means "at least k"; smaller values are exact. A graph
// whose non-isolated nodes are disconnected has connectivity 0. Isolated
// nodes are ignored because the node universe is an upper bound — nodes
// that never appeared in the stream should not force the answer to 0.
// (A node with any incident edge appears in the first peeled forest, so
// certificate-isolated means stream-isolated w.h.p.)
func (kf *KForests) EdgeConnectivity() (int, error) {
	cert, err := kf.Certificate()
	if err != nil {
		return 0, err
	}
	// Compact the certificate onto its non-isolated nodes.
	remap := make(map[uint32]uint32)
	compact := make([]stream.Edge, len(cert))
	id := func(v uint32) uint32 {
		if r, ok := remap[v]; ok {
			return r
		}
		r := uint32(len(remap))
		remap[v] = r
		return r
	}
	for i, e := range cert {
		compact[i] = stream.Edge{U: id(e.U), V: id(e.V)}
	}
	lambda := StoerWagner(uint32(len(remap)), compact)
	if lambda > kf.layers {
		lambda = kf.layers
	}
	return lambda, nil
}
