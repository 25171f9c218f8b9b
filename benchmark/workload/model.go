package workload

import (
	"fmt"
	"math/bits"

	"graphzeppelin/internal/stream"
)

// Model is the exact reference the sketches are checked against: the
// current edge set as an adjacency bit matrix, with connected components
// recomputed from scratch on demand. It shares no code with the engine.
type Model struct {
	n     uint32
	words int      // words per adjacency row
	adj   []uint64 // n rows of n bits
}

// NewModel returns the empty graph on n nodes.
func NewModel(n uint32) *Model {
	w := (int(n) + 63) / 64
	return &Model{n: n, words: w, adj: make([]uint64, int(n)*w)}
}

func (m *Model) flip(u, v uint32) {
	m.adj[int(u)*m.words+int(v/64)] ^= 1 << (v % 64)
}

// Has reports whether edge e is present.
func (m *Model) Has(e stream.Edge) bool {
	return m.adj[int(e.U)*m.words+int(e.V/64)]>>(e.V%64)&1 == 1
}

// Toggle flips edge e, which is what an update of either type does to a
// Z_2 sketch.
func (m *Model) Toggle(e stream.Edge) {
	m.flip(e.U, e.V)
	m.flip(e.V, e.U)
}

// Apply applies a typed update and rejects one that is not well formed:
// an insert of a present edge or a delete of an absent one.
func (m *Model) Apply(u stream.Update) error {
	if u.Edge.U == u.Edge.V || u.Edge.U >= m.n || u.Edge.V >= m.n {
		return fmt.Errorf("workload: invalid edge (%d,%d)", u.Edge.U, u.Edge.V)
	}
	if m.Has(u.Edge) == (u.Type == stream.Insert) {
		return fmt.Errorf("workload: ill-formed %v of edge (%d,%d)", u.Type, u.Edge.U, u.Edge.V)
	}
	m.Toggle(u.Edge)
	return nil
}

// Components returns the canonical partition — every node's
// representative is the smallest node id in its component — and the
// number of components, by breadth-first search over the bit matrix.
func (m *Model) Components() (rep []uint32, count int) {
	rep = make([]uint32, m.n)
	unvisited := make([]uint64, m.words)
	for v := uint32(0); v < m.n; v++ {
		unvisited[v/64] |= 1 << (v % 64)
	}
	var queue []uint32
	for root := uint32(0); root < m.n; root++ {
		if unvisited[root/64]>>(root%64)&1 == 0 {
			continue
		}
		count++
		unvisited[root/64] &^= 1 << (root % 64)
		rep[root] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			row := m.adj[int(u)*m.words : int(u+1)*m.words]
			for w, bitsW := range row {
				reach := bitsW & unvisited[w]
				unvisited[w] &^= reach
				for reach != 0 {
					v := uint32(w*64 + bits.TrailingZeros64(reach))
					reach &= reach - 1
					rep[v] = root
					queue = append(queue, v)
				}
			}
		}
	}
	return rep, count
}

// Canonical rewrites an arbitrary representative labelling (such as the
// engine returns) so that every node's representative is the smallest
// node id of its component. Two labellings describe the same partition
// exactly when their canonical forms are equal.
func Canonical(rep []uint32) []uint32 {
	least := make([]uint32, len(rep))
	for i := range least {
		least[i] = ^uint32(0)
	}
	for v, r := range rep {
		if uint32(v) < least[r] {
			least[r] = uint32(v)
		}
	}
	out := make([]uint32, len(rep))
	for v, r := range rep {
		out[v] = least[r]
	}
	return out
}

// PartitionHash is the FNV-1a hash of a partition's canonical form: what
// a measured process records per answer instead of the answer itself.
func PartitionHash(rep []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range Canonical(rep) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(r >> s & 0xff)
			h *= 1099511628211
		}
	}
	return h
}
