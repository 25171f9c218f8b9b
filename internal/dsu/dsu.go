// Package dsu implements a disjoint-set union (union-find) structure with
// union by size and path compression. GraphZeppelin's query path uses it to
// track the current connected components between Boruvka rounds — kept as
// one star per set between queries, so a query maintaining an earlier
// answer starts from it — and the baselines use it for exact
// Kruskal-style connectivity references.
package dsu

// DSU is a disjoint-set forest over elements 0..n-1.
type DSU struct {
	parent []uint32
	size   []uint32 // root -> members of its set
	count  int      // number of disjoint sets
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]uint32, n),
		size:   make([]uint32, n),
	}
	d.Reset()
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Count returns the current number of disjoint sets.
func (d *DSU) Count() int { return d.count }

// Find returns the representative of x's set, compressing the path.
func (d *DSU) Find(x uint32) uint32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Union merges the sets containing x and y. It returns the representative
// of the merged set and whether a merge actually happened (false when x
// and y were already in the same set). The larger set's representative
// represents the merged set; of two equal sets, x's.
func (d *DSU) Union(x, y uint32) (root uint32, merged bool) {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return rx, false
	}
	if d.size[rx] < d.size[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	d.size[rx] += d.size[ry]
	d.count--
	return rx, true
}

// Size returns the number of elements in x's set.
func (d *DSU) Size(x uint32) int { return int(d.size[d.Find(x)]) }

// Same reports whether x and y are in the same set.
func (d *DSU) Same(x, y uint32) bool { return d.Find(x) == d.Find(y) }

// Components returns, for each element, the representative of its set, and
// a slice of the distinct representatives. The partition it encodes is the
// canonical answer format used to compare systems in tests.
func (d *DSU) Components() (rep []uint32, roots []uint32) {
	rep = make([]uint32, len(d.parent))
	seen := make(map[uint32]struct{}, d.count)
	for i := range d.parent {
		r := d.Find(uint32(i))
		rep[i] = r
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			roots = append(roots, r)
		}
	}
	return rep, roots
}

// Reset returns the structure to n singleton sets without reallocating.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = uint32(i)
		d.size[i] = 1
	}
	d.count = len(d.parent)
}

// Seed resets the structure to a given partition without reallocating:
// element i joins the set labels[i] names, and every set becomes a star on
// its label, which must be one of its members (labels[l] == l, as for the
// rep Components returns).
func (d *DSU) Seed(labels []uint32) {
	if len(labels) != len(d.parent) {
		panic("dsu: Seed with a partition of another size")
	}
	clear(d.size)
	d.count = 0
	for i, l := range labels {
		d.parent[i] = l
		d.size[l]++
		if l == uint32(i) {
			d.count++
		}
	}
}

// Split moves the elements xs out of their sets into one new set of their
// own, which xs[0] represents. Each must be a leaf — not a representative,
// its parent its set's representative, and no element's parent — as every
// element but the labels is right after Seed.
func (d *DSU) Split(xs []uint32) {
	if len(xs) == 0 {
		return
	}
	root := xs[0]
	for _, x := range xs {
		p := d.parent[x]
		if p == x {
			panic("dsu: Split of a representative")
		}
		d.size[p]--
		d.parent[x] = root
	}
	d.parent[root] = root
	d.size[root] = uint32(len(xs))
	d.count++
}

// Repoint points each of xs straight at root, their set's representative:
// after Union absorbed a star into root's, re-pointing the absorbed
// members keeps the merged set a star, so Find stays one step and Split
// finds every member a leaf.
func (d *DSU) Repoint(xs []uint32, root uint32) {
	for _, x := range xs {
		d.parent[x] = root
	}
}

// Parents returns the parent array, for reading only. While every set is
// a star, as right after a Find of every element, Seed, Split and Repoint
// keep them, it holds each element's representative.
func (d *DSU) Parents() []uint32 { return d.parent }
