package core

import "graphzeppelin/internal/cubesketch"

// sketchStore is where an engine's node sketches live: ramStore keeps
// them in per-shard RAM arenas, deviceStore on a block device behind a
// write-back cache (store_device.go). NewEngine picks one and nothing else
// asks which. Slots are the checkpoint codec's serialized node stacks, by
// local node id. Each method runs once per batch, run, section, round or
// root, never per index or bucket. Unless noted, the caller holds the
// quiesce write lock with the workers idle.
//
// Which bytes a reader sees for a node at its cut is not the store's
// concern: the capture (capture.go) brackets every change, and apply only
// fills the image buffer it is handed. A checkpoint's seal, full or delta,
// is a flush and the capture's seal, whatever the store.
type sketchStore interface {
	// apply toggles indices in node's sketches, first marshalling the
	// node's slot into img when img is non-nil; called by the node's
	// owning worker inside the capture's bracket.
	apply(node uint32, indices []uint64, img []byte) error
	// readSlots reads the slots of nodes [start, start+count), current
	// after flush, in accesses of bounded size; the checkpoint scan also
	// calls it for a claimed section while the workers apply, concurrently
	// for distinct sections. writeSlots replaces them, refusing the whole
	// run if one slot fails checkSlots. invalidate is flush plus dropping
	// every copy a writeSlots would leave stale.
	readSlots(start uint32, count int, buf []byte) error
	writeSlots(start uint32, count int, buf []byte) error
	flush() error
	invalidate() error
	// firstRound runs round 0 of a from-scratch query, samples and unions
	// included, when the store does it in one pass that also gathers the
	// rounds after it, returning what is left of the live count; done is
	// false when it leaves the round to sumRound and rootSketch. Either
	// way it first brings the gutters' leftover batches into the sketches.
	// sumRound prepares the query arena for a Boruvka round over q's live
	// roots; rootSketch then points acc at live root i's round sketch,
	// concurrently for distinct roots, and for the giant (q.giant) only
	// after every other root's.
	firstRound(q *querySession, live int) (left int, done bool, err error)
	sumRound(q *querySession, round int) error
	rootSketch(q *querySession, i, round int, acc *cubesketch.Sketch) error
	// stats adds the store's footprint and I/O to st (from any
	// goroutine); close releases the store after the workers stop.
	stats(st *Stats)
	close() error
}

// ramStore keeps every sketch in RAM: shard s's worker owns slabs[s], the
// nodes v with v % Shards == s at index v / Shards, and applies batches to
// it in place. A checkpoint's scan reads the same slabs while the
// workers change them, kept apart by the capture's section claims; in RAM
// the capture's budget holds an image of every node, so no apply waits
// for it.
type ramStore struct {
	e     *Engine
	slabs []*cubesketch.Slab
}

func newRAMStore(e *Engine) *ramStore {
	s := &ramStore{e: e, slabs: make([]*cubesketch.Slab, e.cfg.Shards)}
	for i := range s.slabs {
		s.slabs[i] = e.newSlab(shardNodeCount(e.n, e.cfg.Shards, i))
	}
	return s
}

// slabOf returns the slab holding local node, and its index within it.
func (s *ramStore) slabOf(node uint32) (*cubesketch.Slab, int) {
	k := uint32(len(s.slabs))
	return s.slabs[node%k], int(node / k)
}

func (s *ramStore) apply(node uint32, indices []uint64, img []byte) error {
	slab, local := s.slabOf(node)
	if img != nil {
		slab.MarshalNode(local, img)
	}
	slab.Apply(local, indices)
	return nil
}

func (s *ramStore) readSlots(start uint32, count int, buf []byte) error {
	size := s.e.slotSize
	for j := 0; j < count; j++ {
		slab, local := s.slabOf(start + uint32(j))
		slab.MarshalNode(local, buf[j*size:(j+1)*size])
	}
	return nil
}

func (s *ramStore) writeSlots(start uint32, count int, buf []byte) error {
	if err := s.e.checkSlots(start, count, buf); err != nil {
		return err
	}
	size := s.e.slotSize
	for j := 0; j < count; j++ {
		slab, local := s.slabOf(start + uint32(j))
		if err := slab.UnmarshalNode(local, buf[j*size:(j+1)*size]); err != nil {
			return err
		}
	}
	return nil
}

func (s *ramStore) flush() error      { return nil }
func (s *ramStore) invalidate() error { return nil }

// firstRound leaves round 0 to sumRound: its roots are singletons, each
// sampled in place in its slab. It first hands the gutters' leftover
// batches to the workers (releaseLeftover), which apply a slice's many
// across the shards.
func (s *ramStore) firstRound(q *querySession, live int) (int, bool, error) {
	return live, false, s.e.releaseLeftover(q)
}

// sumRound forms a one-round arena for the roots that need summing: a root
// whose one contribution is a live sketch as is — every root of a
// from-scratch query's first round — IS that member's slab sketch and is
// sampled in place (arenaSlot -1). The sums themselves run in rootSketch,
// across the sampling workers.
func (s *ramStore) sumRound(q *querySession, round int) error {
	q.arenaSlot = q.arenaSlot[:0]
	q.groupByRoot()
	summed := 0
	for i := range q.roots {
		if q.starts[i+1]-q.starts[i] == 1 && q.order[q.starts[i]].src == srcLive {
			q.arenaSlot = append(q.arenaSlot, -1)
			continue
		}
		q.arenaSlot = append(q.arenaSlot, int32(summed))
		summed++
	}
	q.arenaRound = round
	s.e.queryArena.Reshape(summed, s.e.roundSeeds[round:round+1])
	return nil
}

// rootSketch XORs every contribution's round sketch straight out of its
// slab (read-only, like Query), and its before-image's round bytes where
// the plan asks for them, into the root's arena sketch. The giant, which
// lists none, gets the XOR of every other live root's aggregate instead.
func (s *ramStore) rootSketch(q *querySession, i, round int, acc *cubesketch.Sketch) error {
	s.view(q, i, round, acc)
	if q.arenaSlot[i] < 0 {
		return nil
	}
	arena := s.e.queryArena
	var view cubesketch.Sketch
	if i == q.giant {
		for j := range q.roots {
			if j == i {
				continue
			}
			s.view(q, j, round, &view)
			if err := acc.Merge(&view); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range q.order[q.starts[i]:q.starts[i+1]] {
		if c.src&srcLive != 0 {
			slab, local := s.slabOf(c.node)
			slab.View(local, round, &view)
			if err := acc.Merge(&view); err != nil {
				return err
			}
		}
		if err := q.mergeImage(arena, c, round); err != nil {
			return err
		}
	}
	return nil
}

// view points acc at live root i's round sketch: its arena sketch, or the
// slab sketch of a root sampled in place.
func (s *ramStore) view(q *querySession, i, round int, acc *cubesketch.Sketch) {
	if slot := q.arenaSlot[i]; slot >= 0 {
		s.e.queryArena.View(int(slot), 0, acc)
		return
	}
	slab, local := s.slabOf(q.order[q.starts[i]].node)
	slab.View(local, round, acc)
}

func (s *ramStore) stats(st *Stats) {
	for _, slab := range s.slabs {
		st.MemoryBytes += int64(slab.Bytes())
	}
}

func (s *ramStore) close() error { return nil }
