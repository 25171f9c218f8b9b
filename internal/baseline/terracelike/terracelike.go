// Package terracelike is the second explicit-representation baseline,
// standing in for Terrace (Pandey et al., SIGMOD 2021). Terrace stores
// each vertex's neighbours in a degree-adaptive hierarchy: a small array
// inline in the vertex record, a single packed-memory array (PMA) shared
// by all medium-degree vertices, and a per-vertex B-tree for hubs. The
// behaviour class the paper's comparison relies on — compact and fast on
// sparse/skewed graphs, degrading on dense ones because the shared PMA
// pays growing redistribution costs, with no batch-deletion path — is
// reproduced here with the same hierarchy (the B-tree tier realized as
// sorted chunk lists).
package terracelike

import (
	"sort"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/memest"
	"graphzeppelin/internal/stream"
)

// inlineCap is the per-vertex inline capacity; Terrace keeps O(1)
// neighbours in the vertex record itself.
const inlineCap = 12

// hubDegree is the degree at which a vertex migrates from the shared PMA
// to its own B-tree-tier container.
const hubDegree = 1024

// chunkTarget is the sorted-chunk size of the hub tier.
const chunkTarget = 128

type tier uint8

const (
	tierInline tier = iota
	tierPMA
	tierHub
)

// vertex is the degree-adaptive container hierarchy head for one node.
type vertex struct {
	inline  [inlineCap]uint32
	ninline uint8
	tier    tier
	degree  int
	chunks  [][]uint32 // hub tier only
}

// Graph is a dynamic undirected graph with Terrace-style storage.
type Graph struct {
	verts    []vertex
	shared   *pma // the medium-degree tier, shared across all vertices
	numEdges uint64
}

// New returns an empty graph on n nodes.
func New(n uint32) *Graph {
	return &Graph{verts: make([]vertex, n), shared: newPMA()}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() uint32 { return uint32(len(g.verts)) }

// NumEdges returns the current undirected edge count.
func (g *Graph) NumEdges() uint64 { return g.numEdges }

// Degree returns the degree of node u.
func (g *Graph) Degree(u uint32) int { return g.verts[u].degree }

// PMAMoves exposes the shared tier's cumulative redistribution work: the
// metric that shows the PMA degrading as the graph densifies (the last
// column of gzbench's fig13).
func (g *Graph) PMAMoves() uint64 { return g.shared.Moves() }

func key(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// Has reports whether edge (u, v) is present.
func (g *Graph) Has(u, v uint32) bool { return g.hasHalf(u, v) }

func (g *Graph) hasHalf(u, v uint32) bool {
	vx := &g.verts[u]
	switch vx.tier {
	case tierInline:
		for i := 0; i < int(vx.ninline); i++ {
			if vx.inline[i] == v {
				return true
			}
		}
		return false
	case tierPMA:
		return g.shared.Has(key(u, v))
	default:
		return hubHas(vx, v)
	}
}

// insertHalf records v as a neighbour of u, returning false if present.
func (g *Graph) insertHalf(u, v uint32) bool {
	vx := &g.verts[u]
	switch vx.tier {
	case tierInline:
		for i := 0; i < int(vx.ninline); i++ {
			if vx.inline[i] == v {
				return false
			}
		}
		if vx.ninline < inlineCap {
			vx.inline[vx.ninline] = v
			vx.ninline++
			vx.degree++
			return true
		}
		// Spill the inline tier into the shared PMA, then retry there.
		for i := 0; i < inlineCap; i++ {
			g.shared.Insert(key(u, vx.inline[i]))
		}
		vx.ninline = 0
		vx.tier = tierPMA
		fallthrough
	case tierPMA:
		if !g.shared.Insert(key(u, v)) {
			return false
		}
		vx.degree++
		if vx.degree > hubDegree {
			g.promoteToHub(u)
		}
		return true
	default:
		if hubInsert(vx, v) {
			vx.degree++
			return true
		}
		return false
	}
}

func (g *Graph) removeHalf(u, v uint32) bool {
	vx := &g.verts[u]
	switch vx.tier {
	case tierInline:
		for i := 0; i < int(vx.ninline); i++ {
			if vx.inline[i] == v {
				vx.ninline--
				vx.inline[i] = vx.inline[vx.ninline]
				vx.degree--
				return true
			}
		}
		return false
	case tierPMA:
		if g.shared.Delete(key(u, v)) {
			vx.degree--
			return true
		}
		return false
	default:
		if hubRemove(vx, v) {
			vx.degree--
			return true
		}
		return false
	}
}

// promoteToHub moves u's neighbours out of the shared PMA into a private
// chunk list (Terrace's B-tree tier migration).
func (g *Graph) promoteToHub(u uint32) {
	vx := &g.verts[u]
	var nbrs []uint32
	g.shared.Range(key(u, 0), key(u+1, 0), func(k uint64) {
		nbrs = append(nbrs, uint32(k))
	})
	for _, v := range nbrs {
		g.shared.Delete(key(u, v))
	}
	vx.tier = tierHub
	vx.chunks = nil
	for lo := 0; lo < len(nbrs); lo += chunkTarget {
		hi := min(lo+chunkTarget, len(nbrs))
		vx.chunks = append(vx.chunks, append([]uint32(nil), nbrs[lo:hi]...))
	}
	if len(vx.chunks) == 0 {
		vx.chunks = [][]uint32{{}}
	}
}

// neighbors calls fn for every neighbour of u.
func (g *Graph) neighbors(u uint32, fn func(uint32)) {
	vx := &g.verts[u]
	switch vx.tier {
	case tierInline:
		for i := 0; i < int(vx.ninline); i++ {
			fn(vx.inline[i])
		}
	case tierPMA:
		g.shared.Range(key(u, 0), key(u+1, 0), func(k uint64) { fn(uint32(k)) })
	default:
		for _, c := range vx.chunks {
			for _, v := range c {
				fn(v)
			}
		}
	}
}

// Apply ingests one update. Terrace has no batch-deletion path, so the
// harness (like the paper's, footnote 2) feeds deletions one at a time.
func (g *Graph) Apply(u stream.Update) {
	e := u.Edge.Normalize()
	if u.Type == stream.Insert {
		if g.insertHalf(e.U, e.V) {
			g.insertHalf(e.V, e.U)
			g.numEdges++
		}
	} else {
		if g.removeHalf(e.U, e.V) {
			g.removeHalf(e.V, e.U)
			g.numEdges--
		}
	}
}

// InsertBatch applies a batch of insertions.
func (g *Graph) InsertBatch(edges []stream.Edge) {
	for _, e := range edges {
		g.Apply(stream.Update{Edge: e, Type: stream.Insert})
	}
}

// ConnectedComponents returns the representative vector and component
// count, computed exactly.
func (g *Graph) ConnectedComponents() ([]uint32, int) {
	d := dsu.New(len(g.verts))
	for u := range g.verts {
		g.neighbors(uint32(u), func(v uint32) {
			if uint32(u) < v {
				d.Union(uint32(u), v)
			}
		})
	}
	rep, _ := d.Components()
	return rep, d.Count()
}

// SpanningForest returns a spanning forest computed exactly.
func (g *Graph) SpanningForest() []stream.Edge {
	d := dsu.New(len(g.verts))
	var forest []stream.Edge
	for u := range g.verts {
		g.neighbors(uint32(u), func(v uint32) {
			if uint32(u) >= v {
				return
			}
			if _, merged := d.Union(uint32(u), v); merged {
				forest = append(forest, stream.Edge{U: uint32(u), V: v})
			}
		})
	}
	return forest
}

// Bytes estimates the memory footprint: the fixed per-vertex record
// (charged whether used or not — one reason the paper finds Terrace
// several times larger than Aspen), the shared PMA including its gaps,
// and the hub chunks.
func (g *Graph) Bytes() int64 {
	perVertex := int64(inlineCap*4 + 8 + 24)
	total := int64(len(g.verts))*perVertex + g.shared.Bytes()
	for u := range g.verts {
		for _, c := range g.verts[u].chunks {
			total += memest.SliceBytes(cap(c), 4)
		}
	}
	return total
}

// --- hub (B-tree) tier: sorted chunk list ---

func hubHas(vx *vertex, v uint32) bool {
	for _, c := range vx.chunks {
		if len(c) == 0 || c[0] > v || c[len(c)-1] < v {
			continue
		}
		i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
		if i < len(c) && c[i] == v {
			return true
		}
	}
	return false
}

func hubInsert(vx *vertex, v uint32) bool {
	if hubHas(vx, v) {
		return false
	}
	ci := sort.Search(len(vx.chunks), func(i int) bool {
		c := vx.chunks[i]
		return len(c) > 0 && c[len(c)-1] >= v
	})
	if ci == len(vx.chunks) {
		ci = len(vx.chunks) - 1
	}
	c := vx.chunks[ci]
	i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
	c = append(c, 0)
	copy(c[i+1:], c[i:])
	c[i] = v
	if len(c) > 2*chunkTarget {
		mid := len(c) / 2
		left := c[:mid:mid]
		right := append([]uint32(nil), c[mid:]...)
		vx.chunks = append(vx.chunks, nil)
		copy(vx.chunks[ci+2:], vx.chunks[ci+1:])
		vx.chunks[ci] = left
		vx.chunks[ci+1] = right
	} else {
		vx.chunks[ci] = c
	}
	return true
}

func hubRemove(vx *vertex, v uint32) bool {
	for ci, c := range vx.chunks {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
		if i < len(c) && c[i] == v {
			vx.chunks[ci] = append(c[:i], c[i+1:]...)
			return true
		}
	}
	return false
}
