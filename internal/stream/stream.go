// Package stream defines the dynamic-graph-stream vocabulary shared by the
// whole system: undirected edges, insert/delete updates, the pairing
// function that maps an edge on V nodes to an index of the characteristic
// vector of length C(V,2), and a compact binary codec for update streams.
package stream

import (
	"errors"
	"fmt"
)

// UpdateType says whether an update inserts or deletes its edge.
type UpdateType uint8

const (
	// Insert adds the edge to the graph (Δ = +1 in the paper's notation).
	Insert UpdateType = iota
	// Delete removes the edge (Δ = -1).
	Delete
)

// String returns "insert" or "delete".
func (t UpdateType) String() string {
	if t == Insert {
		return "insert"
	}
	return "delete"
}

// Edge is an undirected edge between two distinct nodes. A normalized edge
// has U < V.
type Edge struct {
	U, V uint32
}

// Normalize returns the edge with endpoints ordered so U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Update is one element of a dynamic graph stream.
type Update struct {
	Edge Edge
	Type UpdateType
}

// Pair is a pair of node ids for batched connectivity point queries
// ("are U and V currently in the same component?"). Unlike Edge it
// carries no normalization contract — the two ids are just a question.
type Pair struct {
	U, V uint32
}

// RandomPairs returns count pseudo-random point-query pairs over
// [0, numNodes), deterministic in seed — the shared workload generator
// behind point-query serving drivers, experiments and tests. Pairs may
// repeat and U may equal V (a self-pair is a legitimate, trivially-true
// query).
func RandomPairs(numNodes uint32, count int, seed uint64) []Pair {
	rng := seed*2 + 0x9e3779b97f4a7c15 // never zero: xorshift's fixed point
	pairs := make([]Pair, count)
	for i := range pairs {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pairs[i] = Pair{U: uint32(rng) % numNodes, V: uint32(rng>>32) % numNodes}
	}
	return pairs
}

// VectorLen returns the length of a characteristic vector over numNodes
// nodes: C(numNodes, 2) possible edges.
func VectorLen(numNodes uint64) uint64 {
	return numNodes * (numNodes - 1) / 2
}

// EdgeIndex maps a normalized edge (u < v, both < numNodes) to its position
// in the characteristic vector, using the row-major upper-triangle pairing
//
//	idx = u·numNodes − u(u+1)/2 + (v − u − 1)
//
// which is a bijection between edges and [0, C(numNodes,2)).
func EdgeIndex(numNodes uint64, e Edge) uint64 {
	e = e.Normalize()
	u, v := uint64(e.U), uint64(e.V)
	if v >= numNodes || u == v {
		panic(fmt.Sprintf("stream: invalid edge (%d,%d) for %d nodes", e.U, e.V, numNodes))
	}
	return u*numNodes - u*(u+1)/2 + (v - u - 1)
}

// IndexEdge inverts EdgeIndex, recovering the edge from its vector
// position. It returns an error when idx is out of range.
func IndexEdge(numNodes uint64, idx uint64) (Edge, error) {
	if idx >= VectorLen(numNodes) {
		return Edge{}, fmt.Errorf("stream: index %d out of range for %d nodes", idx, numNodes)
	}
	// Walk rows; each row u holds numNodes-1-u entries. Binary-search the
	// row to keep recovery O(log V).
	lo, hi := uint64(0), numNodes-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*numNodes-mid*(mid+1)/2 <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	u := lo
	rowStart := u*numNodes - u*(u+1)/2
	v := u + 1 + (idx - rowStart)
	return Edge{U: uint32(u), V: uint32(v)}, nil
}

// Validator checks the stream-wellformedness invariants of the graph
// streaming model (Section 2.1): an edge may only be inserted when absent
// and deleted when present. The zero value is ready to use.
type Validator struct {
	present map[Edge]struct{}
}

// ErrInvalidUpdate is wrapped by Validator.Apply errors.
var ErrInvalidUpdate = errors.New("stream: invalid update")

// Apply checks one update against the running edge set and records it.
func (v *Validator) Apply(u Update) error {
	if v.present == nil {
		v.present = make(map[Edge]struct{})
	}
	e := u.Edge.Normalize()
	if e.U == e.V {
		return fmt.Errorf("%w: self loop (%d,%d)", ErrInvalidUpdate, u.Edge.U, u.Edge.V)
	}
	_, exists := v.present[e]
	switch u.Type {
	case Insert:
		if exists {
			return fmt.Errorf("%w: duplicate insert of (%d,%d)", ErrInvalidUpdate, e.U, e.V)
		}
		v.present[e] = struct{}{}
	case Delete:
		if !exists {
			return fmt.Errorf("%w: delete of absent edge (%d,%d)", ErrInvalidUpdate, e.U, e.V)
		}
		delete(v.present, e)
	default:
		return fmt.Errorf("%w: unknown type %d", ErrInvalidUpdate, u.Type)
	}
	return nil
}

// Undo reverts ups, the updates Apply accepted last, in that order: the
// edge set is left as it was before them.
func (v *Validator) Undo(ups []Update) {
	for i := len(ups) - 1; i >= 0; i-- {
		e := ups[i].Edge.Normalize()
		if ups[i].Type == Insert {
			delete(v.present, e)
		} else {
			v.present[e] = struct{}{}
		}
	}
}

// EdgeCount returns the number of edges currently present.
func (v *Validator) EdgeCount() int { return len(v.present) }

// Edges returns the current edge set in unspecified order.
func (v *Validator) Edges() []Edge {
	out := make([]Edge, 0, len(v.present))
	for e := range v.present {
		out = append(out, e)
	}
	return out
}
