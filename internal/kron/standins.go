package kron

import (
	"math/rand/v2"

	"graphzeppelin/internal/stream"
)

// This file synthesizes scaled-down stand-ins for the four public datasets
// of Figure 10 (p2p-gnutella, rec-amazon, google-plus, web-uk). The real
// files are not available offline; each stand-in matches the structural
// family of its original (sparse random peer network, local co-purchase
// lattice, heavy-tailed social graph, community-structured web graph) so
// the Section 6.3 correctness experiments exercise the same shapes.

// dedupAppend adds e to edges if it is simple and unseen.
func dedupAppend(edges []stream.Edge, seen map[stream.Edge]struct{}, u, v uint32) []stream.Edge {
	if u == v {
		return edges
	}
	e := stream.Edge{U: u, V: v}.Normalize()
	if _, ok := seen[e]; ok {
		return edges
	}
	seen[e] = struct{}{}
	return append(edges, e)
}

// GnutellaLike generates a sparse uniform-random graph: n nodes, about m
// edges, the shape of the p2p-gnutella peer-to-peer topology.
func GnutellaLike(n uint32, m int, seed uint64) []stream.Edge {
	rng := rand.New(rand.NewPCG(seed, 0x676e75))
	seen := make(map[stream.Edge]struct{}, m)
	edges := make([]stream.Edge, 0, m)
	for len(edges) < m {
		u := uint32(rng.Uint64N(uint64(n)))
		v := uint32(rng.Uint64N(uint64(n)))
		edges = dedupAppend(edges, seen, u, v)
	}
	return edges
}

// AmazonLike generates a locality-heavy graph: each node links to a few
// nearby ids (co-purchased products cluster), the shape of rec-amazon.
func AmazonLike(n uint32, seed uint64) []stream.Edge {
	rng := rand.New(rand.NewPCG(seed, 0x616d7a))
	seen := make(map[stream.Edge]struct{}, int(n)*2)
	edges := make([]stream.Edge, 0, int(n)*2)
	for u := uint32(0); u < n; u++ {
		links := 1 + int(rng.Uint64N(3))
		for l := 0; l < links; l++ {
			off := 1 + uint32(rng.Uint64N(8))
			v := u + off
			if v >= n {
				continue
			}
			edges = dedupAppend(edges, seen, u, v)
		}
	}
	return edges
}

// GooglePlusLike generates a heavy-tailed graph by preferential attachment
// with extra random follow edges, the shape of the google-plus follower
// graph (few hubs, many low-degree nodes, relatively dense).
func GooglePlusLike(n uint32, edgesPerNode int, seed uint64) []stream.Edge {
	rng := rand.New(rand.NewPCG(seed, 0x67706c75))
	seen := make(map[stream.Edge]struct{}, int(n)*edgesPerNode)
	edges := make([]stream.Edge, 0, int(n)*edgesPerNode)
	// endpoint pool realizes preferential attachment: nodes appear in the
	// pool once per incident edge, so new edges prefer high-degree nodes.
	pool := make([]uint32, 0, 2*int(n)*edgesPerNode)
	pool = append(pool, 0)
	for u := uint32(1); u < n; u++ {
		for l := 0; l < edgesPerNode; l++ {
			var v uint32
			if rng.Float64() < 0.8 && len(pool) > 0 {
				v = pool[rng.Uint64N(uint64(len(pool)))]
			} else {
				v = uint32(rng.Uint64N(uint64(u)))
			}
			before := len(edges)
			edges = dedupAppend(edges, seen, u, v)
			if len(edges) > before {
				pool = append(pool, u, v)
			}
		}
	}
	return edges
}

// WebUKLike generates a planted-community graph: dense blocks joined by
// sparse inter-community links, the shape of the web-uk host graph.
func WebUKLike(n uint32, communities int, intraProb, interPerNode float64, seed uint64) []stream.Edge {
	if communities <= 0 {
		communities = 16
	}
	rng := rand.New(rand.NewPCG(seed, 0x7765627563))
	seen := make(map[stream.Edge]struct{})
	var edges []stream.Edge
	size := n / uint32(communities)
	if size == 0 {
		size = 1
	}
	for c := uint32(0); c < uint32(communities); c++ {
		lo := c * size
		hi := lo + size
		if c == uint32(communities)-1 {
			hi = n
		}
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if rng.Float64() < intraProb {
					edges = dedupAppend(edges, seen, u, v)
				}
			}
		}
	}
	extra := int(float64(n) * interPerNode)
	for i := 0; i < extra; i++ {
		u := uint32(rng.Uint64N(uint64(n)))
		v := uint32(rng.Uint64N(uint64(n)))
		edges = dedupAppend(edges, seen, u, v)
	}
	return edges
}
