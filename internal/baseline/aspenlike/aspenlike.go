// Package aspenlike is the explicit-representation dynamic-graph baseline
// standing in for Aspen (Dhulipala et al., PLDI 2019) in the system
// comparisons. Aspen itself is a C++ system built on compressed
// purely-functional C-trees; what the paper's experiments rely on is its
// behaviour class: a compact in-RAM explicit representation (~4-8 bytes
// per directed edge) with efficient *batched* inserts and deletes and
// exact connectivity queries whose cost grows with the edge count. This
// package reproduces that class with per-vertex sorted adjacency arrays
// merged batch-at-a-time: the C++ system is not available to a pure-Go
// build, and the comparisons need only its cost shape.
package aspenlike

import (
	"sort"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/memest"
	"graphzeppelin/internal/stream"
)

// Graph is a dynamic undirected graph stored as sorted adjacency arrays.
type Graph struct {
	adj      [][]uint32
	numEdges uint64
}

// New returns an empty graph on n nodes.
func New(n uint32) *Graph {
	return &Graph{adj: make([][]uint32, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() uint32 { return uint32(len(g.adj)) }

// NumEdges returns the current undirected edge count.
func (g *Graph) NumEdges() uint64 { return g.numEdges }

// Degree returns the degree of node u.
func (g *Graph) Degree(u uint32) int { return len(g.adj[u]) }

// Has reports whether edge (u, v) is present.
func (g *Graph) Has(u, v uint32) bool {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// InsertBatch applies a batch of edge insertions, the batch-parallel
// ingestion interface of the Aspen/Terrace model. Duplicates of existing
// edges are ignored.
func (g *Graph) InsertBatch(edges []stream.Edge) {
	byNode := groupEndpoints(edges)
	for node, add := range byNode {
		g.adj[node] = mergeInsert(g.adj[node], add)
	}
	g.recount()
}

// DeleteBatch applies a batch of edge deletions; absent edges are ignored.
func (g *Graph) DeleteBatch(edges []stream.Edge) {
	byNode := groupEndpoints(edges)
	for node, del := range byNode {
		g.adj[node] = mergeDelete(g.adj[node], del)
	}
	g.recount()
}

func (g *Graph) recount() {
	var halfEdges uint64
	for _, a := range g.adj {
		halfEdges += uint64(len(a))
	}
	g.numEdges = halfEdges / 2
}

// Apply ingests one interleaved update (the streaming interface; slower
// per update than batches, as the paper observes for these systems).
func (g *Graph) Apply(u stream.Update) {
	e := u.Edge.Normalize()
	if u.Type == stream.Insert {
		if !g.Has(e.U, e.V) {
			g.adj[e.U] = insertSorted(g.adj[e.U], e.V)
			g.adj[e.V] = insertSorted(g.adj[e.V], e.U)
			g.numEdges++
		}
	} else {
		if g.Has(e.U, e.V) {
			g.adj[e.U] = deleteSorted(g.adj[e.U], e.V)
			g.adj[e.V] = deleteSorted(g.adj[e.V], e.U)
			g.numEdges--
		}
	}
}

// ConnectedComponents returns the representative vector and component
// count, computed exactly with a DSU sweep over the adjacency arrays.
func (g *Graph) ConnectedComponents() ([]uint32, int) {
	d := dsu.New(len(g.adj))
	for u, a := range g.adj {
		for _, v := range a {
			if uint32(u) < v {
				d.Union(uint32(u), v)
			}
		}
	}
	rep, _ := d.Components()
	return rep, d.Count()
}

// SpanningForest returns a spanning forest computed exactly.
func (g *Graph) SpanningForest() []stream.Edge {
	d := dsu.New(len(g.adj))
	var forest []stream.Edge
	for u, a := range g.adj {
		for _, v := range a {
			if uint32(u) >= v {
				continue
			}
			if _, merged := d.Union(uint32(u), v); merged {
				forest = append(forest, stream.Edge{U: uint32(u), V: v})
			}
		}
	}
	return forest
}

// Bytes estimates the structure's memory footprint: the quantity compared
// in Figure 11.
func (g *Graph) Bytes() int64 {
	total := memest.SliceBytes(len(g.adj), 24) // the adjacency spine
	for _, a := range g.adj {
		total += memest.SliceBytes(cap(a), 4)
	}
	return total
}

// groupEndpoints expands undirected edges into per-endpoint sorted
// adjacency deltas.
func groupEndpoints(edges []stream.Edge) map[uint32][]uint32 {
	byNode := make(map[uint32][]uint32)
	for _, e := range edges {
		e = e.Normalize()
		byNode[e.U] = append(byNode[e.U], e.V)
		byNode[e.V] = append(byNode[e.V], e.U)
	}
	for _, s := range byNode {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return byNode
}

// mergeInsert merges sorted new endpoints into a sorted adjacency array,
// skipping values already present (and duplicate batch entries).
func mergeInsert(a, add []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(add))
	i, j := 0, 0
	for i < len(a) || j < len(add) {
		switch {
		case j >= len(add):
			out = append(out, a[i])
			i++
		case i >= len(a):
			v := add[j]
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
			j++
		case a[i] < add[j]:
			out = append(out, a[i])
			i++
		case a[i] > add[j]:
			v := add[j]
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
			j++
		default: // equal: already present
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// mergeDelete removes sorted del values from sorted a.
func mergeDelete(a, del []uint32) []uint32 {
	out := a[:0:len(a)]
	j := 0
	for _, v := range a {
		for j < len(del) && del[j] < v {
			j++
		}
		if j < len(del) && del[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

func insertSorted(a []uint32, v uint32) []uint32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func deleteSorted(a []uint32, v uint32) []uint32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i < len(a) && a[i] == v {
		return append(a[:i], a[i+1:]...)
	}
	return a
}
