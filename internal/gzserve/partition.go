package gzserve

import (
	"fmt"

	"graphzeppelin/internal/stream"
)

// Partitioner assigns every node of the universe [0, numNodes) one owner
// among K parts: contiguous ⌈n/K⌉-node ranges, so part i's worker
// sketches exactly the nodes Range(i). A node's sketch is a function of
// its own incident updates alone, so an update is sent to the owners of
// both its endpoints — once when they coincide — and the cluster's
// sketch state is the concatenation of the parts' ranges. Pure and
// deterministic: a retried batch re-partitions identically.
type Partitioner struct {
	k        int
	numNodes uint32
	nodesPer uint32
}

// NewRangePartitioner partitions the node universe [0, numNodes) into k
// contiguous ranges.
func NewRangePartitioner(numNodes uint32, k int) (*Partitioner, error) {
	if k <= 0 {
		return nil, fmt.Errorf("gzserve: partitioner needs k >= 1, got %d", k)
	}
	if numNodes == 0 {
		return nil, fmt.Errorf("gzserve: partitioner needs a node universe")
	}
	nodesPer := (numNodes + uint32(k) - 1) / uint32(k)
	return &Partitioner{k: k, numNodes: numNodes, nodesPer: nodesPer}, nil
}

// Owner returns the part owning node.
func (p *Partitioner) Owner(node uint32) int {
	return min(int(node/p.nodesPer), p.k-1) // nodes beyond k*nodesPer when k doesn't divide n
}

// Owners returns the parts an update goes to: the owners of its two
// endpoints, equal when one part owns both.
func (p *Partitioner) Owners(u stream.Update) (int, int) {
	return p.Owner(u.Edge.U), p.Owner(u.Edge.V)
}

// Range returns the node range [lo, hi) owned by part i.
func (p *Partitioner) Range(i int) (lo, hi uint32) {
	lo = uint32(i) * p.nodesPer
	hi = lo + p.nodesPer
	if hi > p.numNodes || i == p.k-1 {
		hi = p.numNodes
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Split partitions a batch into per-part sub-batches, appending onto the
// provided buffers (resliced to zero length first); an update whose
// endpoints have different owners lands in both. The returned slice
// aliases bufs when it has k entries.
func (p *Partitioner) Split(ups []stream.Update, bufs [][]stream.Update) [][]stream.Update {
	if len(bufs) != p.k {
		bufs = make([][]stream.Update, p.k)
	}
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	for _, u := range ups {
		i, j := p.Owners(u)
		bufs[i] = append(bufs[i], u)
		if j != i {
			bufs[j] = append(bufs[j], u)
		}
	}
	return bufs
}
