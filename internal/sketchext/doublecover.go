package sketchext

import (
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// Bipartite tests bipartiteness of a dynamic graph stream via the double
// cover: D(G) has two copies u°, u' of every node and, for each edge
// (u,v), the edges (u°,v') and (u',v°). G is bipartite iff
// cc(D(G)) = 2·cc(G): each bipartite component lifts to two disjoint
// copies, while any odd cycle wires its copies together.
//
// The tester is one engine over three layers: G on [0,V), and D(G) on
// [V,3V) with u° = V+u and u' = 2V+u. Its space is three node-sketch
// universes — still O(V·log³V).
type Bipartite struct{ Layered }

// NewBipartite creates a tester over node ids [0, numNodes).
func NewBipartite(numNodes uint32, cfg core.Config) (*Bipartite, error) {
	n := numNodes
	l, err := newLayered(kindBipartite, 3, numNodes, cfg, func(dst []stream.Edge, e stream.Edge) []stream.Edge {
		return append(dst, e,
			stream.Edge{U: n + e.U, V: 2*n + e.V},
			stream.Edge{U: 2*n + e.U, V: n + e.V})
	})
	if err != nil {
		return nil, err
	}
	return &Bipartite{l}, nil
}

// IsBipartite reports whether the current graph is bipartite, from one
// query over G and D(G). Isolated nodes are bipartite trivially; the
// double-cover identity handles them because an isolated node contributes
// one component to G and two to D(G).
func (b *Bipartite) IsBipartite() (bool, error) {
	cc, err := b.components()
	if err != nil {
		return false, err
	}
	return cc[1]+cc[2] == 2*cc[0], nil
}
