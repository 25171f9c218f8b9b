// Package workload generates the benchmark's inputs: update streams that
// are deterministic in the seed, written once per run as files the
// measured child processes load, plus the exact model the answers are
// checked against.
package workload

import (
	"math/rand/v2"
	"sort"

	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// Stream is one pass of a generated update stream. The pass is well
// formed from the empty graph (an edge is inserted only when absent and
// deleted only when present) and ends on exactly Final.
//
// Replaying the pass again is how the benchmark gets long runs from a
// short input: sketches are linear over Z_2, so an even number of passes
// returns to the empty graph and an odd number ends on Final. To keep
// every pass well formed, the types of an even pass are rewritten: it
// starts from Final instead of the empty graph, so an update's edge is
// present exactly when it was absent in the odd pass iff the edge is in
// Final — those updates flip Insert<->Delete, the rest keep their type.
type Stream struct {
	NumNodes uint32
	Updates  []stream.Update
	// Final is the edge set the pass ends on; Disconnected the node set
	// that has no edge to the rest of the graph in Final.
	Final        []stream.Edge
	Disconnected []uint32
	// Reserved nodes are taken out of the stream altogether: no update
	// touches them, so they are isolated at every point of every pass
	// and only the trickles ever connect them (see Trickles). Cutting a
	// node set off in Final is not enough for that: mid-pass, transient
	// edges tie the disconnected set to the rest almost all the time.
	Reserved []uint32
}

// reservedNodes is how many of the disconnected nodes are reserved.
const reservedNodes = 8

// reserve removes the first few disconnected nodes, and every update and
// final edge that touches one, from the stream. Dropping all updates of
// an edge leaves the others' insert/delete alternation intact.
func (s *Stream) reserve() {
	k := min(reservedNodes, len(s.Disconnected)/2)
	s.Reserved, s.Disconnected = s.Disconnected[:k], s.Disconnected[k:]
	gone := make([]bool, s.NumNodes)
	for _, v := range s.Reserved {
		gone[v] = true
	}
	ups := s.Updates[:0]
	for _, u := range s.Updates {
		if !gone[u.Edge.U] && !gone[u.Edge.V] {
			ups = append(ups, u)
		}
	}
	s.Updates = ups
	final := s.Final[:0]
	for _, e := range s.Final {
		if !gone[e.U] && !gone[e.V] {
			final = append(final, e)
		}
	}
	s.Final = final
}

// DenseKron is the paper's dense Kronecker input (half of all possible
// edges on 2^scale nodes) converted to an insert/delete stream.
func DenseKron(scale int, seed uint64) Stream {
	n := uint32(1) << scale
	res := kron.ToStream(kron.DenseKronecker(scale, seed), n, kron.StreamOptions{}, seed)
	s := Stream{NumNodes: n, Updates: res.Updates, Final: res.FinalEdges, Disconnected: res.Disconnected}
	s.reserve()
	return s
}

// Social mix parameters: the share of stream positions that delete an
// edge of a hot person, the share that re-insert one of that person's
// deleted edges, and the Zipf exponent of the hot-person choice. With
// 15 % deletes and 15 % re-inserts the stream is 85 % inserts, and the
// same few persons are touched again and again.
const (
	socialDeleteShare   = 0.15
	socialReinsertShare = 0.15
	socialZipfS         = 1.2
	socialEdgesPerNode  = 48
)

// Social is an LDBC-like social-network stream: the friendships of a
// heavy-tailed graph form in random order across the whole network,
// interleaved with recurring touches — a Zipf-chosen hot person drops
// one of their current friendships or restores one dropped earlier.
func Social(numNodes uint32, seed uint64) Stream {
	rng := rand.New(rand.NewPCG(seed, 0x736f6369616c))
	base := kron.GooglePlusLike(numNodes, socialEdgesPerNode, seed)

	// Cut a small node set off from the rest, as kron.ToStream does.
	k := min(150, int(numNodes)/8)
	cut := make([]bool, numNodes)
	var disconnected []uint32
	for _, v := range rng.Perm(int(numNodes))[:k] {
		cut[v] = true
		disconnected = append(disconnected, uint32(v))
	}
	kept := base[:0]
	for _, e := range base {
		if cut[e.U] == cut[e.V] {
			kept = append(kept, e.Normalize())
		}
	}
	base = kept
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	// Hot persons: Zipf rank r is the person with the r-th most
	// friendships, so the recurring touches land on the hubs.
	degree := make([]int, numNodes)
	for _, e := range base {
		degree[e.U]++
		degree[e.V]++
	}
	hot := make([]int, numNodes)
	for i := range hot {
		hot[i] = i
	}
	sort.SliceStable(hot, func(i, j int) bool { return degree[hot[i]] > degree[hot[j]] })
	zipf := rand.NewZipf(rng, socialZipfS, 1, uint64(numNodes-1))

	present := make([][]stream.Edge, numNodes) // per person: current friendships
	dropped := make([][]stream.Edge, numNodes) // per person: dropped, restorable
	total := int(float64(len(base)) / (1 - socialDeleteShare - socialReinsertShare))
	ups := make([]stream.Update, 0, total)
	final := make(map[stream.Edge]struct{}, len(base))
	next := 0
	removeFrom := func(list []stream.Edge, e stream.Edge) []stream.Edge {
		for i, x := range list {
			if x == e {
				list[i] = list[len(list)-1]
				return list[:len(list)-1]
			}
		}
		return list
	}
	for next < len(base) {
		r := rng.Float64()
		p := uint32(hot[zipf.Uint64()])
		switch {
		case r < socialDeleteShare && len(present[p]) > 0:
			e := present[p][rng.IntN(len(present[p]))]
			present[e.U] = removeFrom(present[e.U], e)
			present[e.V] = removeFrom(present[e.V], e)
			dropped[p] = append(dropped[p], e)
			delete(final, e)
			ups = append(ups, stream.Update{Edge: e, Type: stream.Delete})
		case r < socialDeleteShare+socialReinsertShare && len(dropped[p]) > 0:
			i := rng.IntN(len(dropped[p]))
			e := dropped[p][i]
			dropped[p][i] = dropped[p][len(dropped[p])-1]
			dropped[p] = dropped[p][:len(dropped[p])-1]
			present[e.U] = append(present[e.U], e)
			present[e.V] = append(present[e.V], e)
			final[e] = struct{}{}
			ups = append(ups, stream.Update{Edge: e, Type: stream.Insert})
		default:
			e := base[next]
			next++
			present[e.U] = append(present[e.U], e)
			present[e.V] = append(present[e.V], e)
			final[e] = struct{}{}
			ups = append(ups, stream.Update{Edge: e, Type: stream.Insert})
		}
	}
	// Final in base order, so the result is deterministic in the seed.
	fin := make([]stream.Edge, 0, len(final))
	for _, e := range base {
		if _, ok := final[e]; ok {
			fin = append(fin, e)
		}
	}
	s := Stream{NumNodes: numNodes, Updates: ups, Final: fin, Disconnected: disconnected}
	s.reserve()
	return s
}
