package core

import (
	"errors"
	"fmt"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/diskstore"
	"graphzeppelin/internal/iomodel"
)

// deviceStore keeps every sketch on a block device (diskstore.Store,
// node groups of npg slots sized toward the device block) behind a sharded
// write-back cache of decoded groups (diskstore.Cache), whose shard s only
// the worker of shard s faults groups into: the workers' batches apply to
// the decoded groups, and the device sees only group fills and coalesced
// dirty write-backs. The one other writer is a from-scratch query's pass,
// which applies the gutters' leftover batches while the workers are idle:
// in the cache for a resident group, and for any other group to its slots
// as the pass read them, writing the changed span back right away (walk).
// Everything that reads the device directly — checkpoint scans, merges,
// the query scan — runs after a flush or invalidate, or serves resident
// groups through Cache.Peek, because a dirty cached group makes the device
// bytes stale by design. A checkpoint's seal flushes, so the device
// holds the cut, and its scan then reads the device while the workers
// apply and queries run: a write-back or a query's write during the stream
// rewrites only bytes unchanged since the seal, or bytes of a node whose
// image the capture took at its first change (from the decoded group in
// ApplyCapture, or from the slot the pass read) and substitutes.
type deviceStore struct {
	e     *Engine
	dev   iomodel.Device
	store *diskstore.Store
	cache *diskstore.Cache
	npg   int
	// chunk is the slots one sequential device access of a scan reads
	// (queryScanBytes, at least one slot and at most the store), scanBuf
	// the query scan's buffer of that size, and probe the round-0 sketch
	// round 0's pass decodes a slot read off the device into to sample it.
	chunk   int
	scanBuf []byte
	probe   *cubesketch.Sketch
}

// firstRoundDepth is the most rounds after round 0 that round 0's pass
// gathers. The pass holds a stack for each component that round 0 has
// built so far, and 4 rounds of those fit the arena's n single-round
// sketches while they stay below n/4: their peak measured 0.16–0.21 n on
// the dense Kronecker and the social streams at 2^11 nodes (stackFor
// narrows the stacks when they do not fit).
const firstRoundDepth = 4

// newDeviceStore resolves the disk-tier geometry — group slots sized
// toward the device block (the paper's max{1, B / sketch bytes} node
// grouping) unless Config.NodesPerGroup fixes it — and opens the store,
// with every slot initialized to the empty sketch, and its cache.
func newDeviceStore(e *Engine) (*deviceStore, error) {
	cfg := e.cfg
	npg := cfg.NodesPerGroup
	if npg <= 0 {
		npg = min(cfg.BlockSize/e.slotSize, 256)
	}
	npg = max(1, min(npg, int(e.n)))
	s := &deviceStore{e: e, npg: npg, chunk: max(1, min(queryScanBytes/e.slotSize, int(e.n)))}
	var err error
	if s.dev, err = e.openDevice("sketches.gz0"); err != nil {
		return nil, err
	}
	if s.store, err = diskstore.New(s.dev, e.n, e.slotSize, npg); err != nil {
		return nil, err
	}
	// Reads before a node's first write must decode, so every slot starts
	// as the empty-sketch encoding, written in coalesced chunks.
	chunk := make([]byte, s.chunk*e.slotSize)
	for i := 0; i < s.chunk; i++ {
		copy(chunk[i*e.slotSize:], e.emptySlot)
	}
	for node := uint32(0); node < e.n; node += uint32(s.chunk) {
		count := min(s.chunk, int(e.n-node))
		if err := s.store.WriteRange(node, count, chunk[:count*e.slotSize]); err != nil {
			return nil, fmt.Errorf("core: initializing sketch store: %w", err)
		}
	}
	s.cache = diskstore.NewCache(s.store, diskstore.CacheConfig{
		Bytes:   cfg.CacheBytes,
		Shards:  cfg.Shards,
		NewSlab: func() *cubesketch.Slab { return e.newSlab(npg) },
	})
	return s, nil
}

func (s *deviceStore) apply(node uint32, indices []uint64, img []byte) error {
	return s.cache.ApplyCapture(node, indices, img)
}

// readSlots reads in accesses of at most chunk slots, the query scan's.
func (s *deviceStore) readSlots(start uint32, count int, buf []byte) error {
	size := s.e.slotSize
	for lo := 0; lo < count; lo += s.chunk {
		hi := min(lo+s.chunk, count)
		if err := s.store.ReadRange(start+uint32(lo), hi-lo, buf[lo*size:hi*size]); err != nil {
			return fmt.Errorf("core: reading slots of nodes [%d,%d): %w", int(start)+lo, int(start)+hi, err)
		}
	}
	return nil
}

func (s *deviceStore) writeSlots(start uint32, count int, buf []byte) error {
	if err := s.e.checkSlots(start, count, buf); err != nil {
		return err
	}
	if err := s.store.WriteRange(start, count, buf[:count*s.e.slotSize]); err != nil {
		return fmt.Errorf("core: writing slots of nodes [%d,%d): %w", start, int(start)+count, err)
	}
	return nil
}

func (s *deviceStore) flush() error {
	if err := s.cache.WriteBackAll(); err != nil {
		return fmt.Errorf("core: flushing write-back cache: %w", err)
	}
	return nil
}

func (s *deviceStore) invalidate() error {
	if err := s.cache.Invalidate(); err != nil {
		return fmt.Errorf("core: invalidating write-back cache: %w", err)
	}
	return nil
}

// scratch makes what the first query scan needs: the scan buffer, the
// probe, and the arena at its bound of n single-round sketches, so that no
// later round or query grows it.
func (s *deviceStore) scratch() {
	if s.scanBuf != nil {
		return
	}
	e := s.e
	s.scanBuf = make([]byte, s.chunk*e.slotSize)
	s.probe = cubesketch.New(e.vecLen, e.cfg.Columns, e.roundSeeds[0])
	e.queryArena.Reshape(int(e.n), e.roundSeeds[:1])
}

// firstRound runs round 0 of a from-scratch query as one pass over the
// store in node order (walk). For each node it samples the round-0 sketch
// out of the slot, unions along the edge found — boruvkaRound's union
// phase, node by node, in the same order, since round 0's live roots are
// the nodes in order — and XORs the slot's rounds 1..k into the stack of
// the node's current root, merging two stacks on every union. Round 1 then
// folds the stacks (foldHeld) and does not read the device: a query that
// used to scan round 0 and then again for the look-ahead reads the store
// once. k starts at min(Rounds-1, firstRoundDepth) and narrows when the
// stacks outgrow the arena (stackFor), so neither the I/O nor the arena
// ever exceeds a round-0 scan's. A node whose round-0 cut is empty while
// it is still a singleton is complete and gathers nothing.
//
// The pass is also the query's drain: it applies the gutters' leftover
// batches (takeLeftover) to each group as it reaches it (walk), so the
// store is read once and only what they changed is written. A failure
// once that has begun poisons the engine, as a worker's apply does: some
// batches may be in the sketches and some not, or applied to bytes the
// device never got.
func (s *deviceStore) firstRound(q *querySession, live int) (left int, done bool, err error) {
	e, arena := s.e, s.e.queryArena
	s.scratch()
	q.beginGather(arena, e.roundSeeds, int(e.n), min(e.cfg.Rounds-1, firstRoundDepth))
	defer q.endGather()
	if len(q.left) > 0 {
		defer func() {
			if err == nil && q.leftAt < len(q.left) {
				err = fmt.Errorf("core: round 0's pass did not reach node %d's leftover batch", q.left[q.leftAt].Node)
			}
			if err != nil {
				e.setErr(err)
			}
		}()
	}
	var view cubesketch.Sketch
	err = s.walk(q, func(c contribution, src stackSource) error {
		v, acc := c.node, &view
		if src.slab != nil {
			src.slab.View(src.local, 0, acc)
		} else {
			acc = s.probe
			acc.Reset()
			if err := acc.MergeBinary(src.slot[:e.sketchSize]); err != nil {
				return fmt.Errorf("core: query decode of node %d from round 0: %w", v, err)
			}
		}
		switch edge, got := e.sample(acc); got {
		case sampledEmpty:
			live--
			if q.d.Size(v) == 1 {
				// boruvkaRound flags every emptied root before its unions,
				// which clear the flag of each root they merge into.
				q.finished[v] = true
				return nil
			}
		case sampledEdge:
			if root, absorbed, ok := q.join(edge); ok {
				live--
				if err := q.mergeStacks(arena, root, absorbed); err != nil {
					return fmt.Errorf("core: folding supernodes: %w", err)
				}
			}
		}
		if q.arenaEnd == q.arenaRound {
			return nil // a one-round sketch: nothing to gather
		}
		h := q.stackFor(arena, q.find(v), int(e.n))
		q.held[h].members++
		if err := src.mergeInto(arena, int(h), 1, e.sketchSize); err != nil {
			return fmt.Errorf("core: query merge of node %d from round 1: %w", v, err)
		}
		return nil
	})
	return live, true, err
}

// sumRound sums every live root into the arena, unless the stacks round 0
// gathered, or the previous scan's look-ahead, fold into this round
// (foldHeld). A scan at round r with L live roots sums k = min(Rounds-r,
// max(1, V/L)) rounds per root, not one: a union's aggregate is the XOR of
// its parts' aggregates, so rounds r+1 .. r+k-1 fold what is already in
// RAM and never touch the device. L*k single-round sketches is never more
// than the V that round 0 (L = V, k = 1) needs anyway. The giant's stack
// is the XOR of the others' (dominant), so its members are not read. A
// delta query keeps k = 1: its contributing groups are few and mostly
// resident.
func (s *deviceStore) sumRound(q *querySession, round int) error {
	e, arena := s.e, s.e.queryArena
	folded, err := q.foldHeld(arena, round)
	if err != nil {
		return fmt.Errorf("core: folding supernodes: %w", err)
	}
	if folded {
		return nil
	}
	nr, k := len(q.roots), 1
	if !q.delta {
		k = min(e.cfg.Rounds-round, max(1, int(e.n)/nr))
	}
	q.arenaSlot = q.arenaSlot[:0]
	for i := 0; i < nr; i++ {
		q.arenaSlot = append(q.arenaSlot, int32(i))
	}
	q.arenaRound, q.arenaEnd = round, round+k
	arena.Reshape(nr, e.roundSeeds[round:round+k])
	if err := s.scanRound(q, arena, round); err != nil {
		return err
	}
	if g := q.giant; g >= 0 {
		for i := 0; i < nr; i++ {
			if i == g {
				continue
			}
			if err := arena.MergeRounds(g, 0, arena, i, 0, k); err != nil {
				return fmt.Errorf("core: complementing supernode: %w", err)
			}
		}
	}
	q.holdScanned()
	return nil
}

func (s *deviceStore) rootSketch(q *querySession, i, round int, acc *cubesketch.Sketch) error {
	s.e.queryArena.View(int(q.arenaSlot[i]), round-q.arenaRound, acc)
	return nil
}

// scanRound materializes the supernode sketches of rounds
// [round, round+arena.Rounds()) from the round's contribution list: the
// image bytes and logs the plan asks for, from RAM, then every
// contribution's live rounds, off the tiered store in one walk, each
// slot's rounds — adjacent in the slot — XOR-merged into its root's arena
// stack without decoding the others. One scan costs
// O(uncachedContributingBytes/B) block reads in O(runs × chunksPerRun)
// operations: the live store outside the giant for a from-scratch query,
// the small pieces of a cut for a delta, whose logged dirty nodes read
// nothing.
func (s *deviceStore) scanRound(q *querySession, arena *cubesketch.Slab, round int) error {
	s.scratch()
	for _, c := range q.contribs {
		if err := q.mergeCaptured(arena, c, round); err != nil {
			return fmt.Errorf("core: query merge of node %d image from round %d: %w", c.node, round, err)
		}
	}
	return s.walk(q, func(c contribution, src stackSource) error {
		if err := src.mergeInto(arena, int(q.arenaSlot[c.slot]), round, s.e.sketchSize); err != nil {
			return fmt.Errorf("core: query merge of node %d from round %d: %w", c.node, round, err)
		}
		return nil
	})
}

// stackSource is where a walk found one node's stored stack: decoded in a
// resident cache group's slab, at local, or as the slot's bytes read off
// the device.
type stackSource struct {
	slab  *cubesketch.Slab
	local int
	slot  []byte
}

// mergeInto XORs the node's rounds [from, from+dst.Rounds()) into dst's
// stack i.
func (src stackSource) mergeInto(dst *cubesketch.Slab, i, from, sketchSize int) error {
	if src.slab != nil {
		return dst.MergeRounds(i, 0, src.slab, src.local, from, dst.Rounds())
	}
	off := from * sketchSize
	return dst.MergeNodeBinary(i, src.slot[off:off+dst.NodeSize()])
}

// walk visits, in node order, every contribution of q's round (ascending
// by node) that needs live bytes, with its node's stored stack, after
// applying q's leftover batches of the node's group. Only groups holding
// such a contribution are touched. Those resident in the write-back cache
// are served from their decoded arenas with zero device I/O — which is
// also what keeps the walk coherent: a dirty cached group's device bytes
// are stale by design, so the cache copy is the authoritative one (and a
// node dirtied since the last query was applied through the cache, so a
// trickle's groups are normally still resident) — and a leftover batch of
// theirs applies through the cache, as a worker's would. The remaining
// groups are coalesced into sequential runs (bridging gaps cheaper than an
// extra operation), each run read with ReadRange in chunk-slot pieces; a
// leftover batch of a piece applies to its slot's bytes there, and the
// span of slots they changed goes back to the device in one WriteRange
// before the next piece is read. Every leftover batch of a group the walk
// passes applies: one of a group it skips is an error. A delta query's
// leftovers are all pre-cut, and its plan applies those it reads live
// itself (applyLeftovers), so its walk applies none.
func (s *deviceStore) walk(q *querySession, visit func(c contribution, src stackSource) error) error {
	e, cs := s.e, q.contribs
	n, npg, slotSize := int(e.n), s.npg, e.slotSize
	// A gap of non-contributing slots is bridged when reading through it
	// costs no more blocks than starting a fresh operation would.
	gapSlots := e.cfg.BlockSize / slotSize

	// flushRun reads the pending uncached slot run [lo, hi) in chunks and
	// visits its contributions cs[ci:cj].
	flushRun := func(lo, hi, ci, cj int) error {
		for cl := lo; cl < hi; cl += s.chunk {
			ch := min(cl+s.chunk, hi)
			buf := s.scanBuf[:(ch-cl)*slotSize]
			if err := s.store.ReadRange(uint32(cl), ch-cl, buf); err != nil {
				return fmt.Errorf("core: query scan of nodes [%d,%d): %w", cl, ch, err)
			}
			if err := s.applyLeftover(q, cl, ch, buf); err != nil {
				return err
			}
			for ; ci < cj && int(cs[ci].node) < ch; ci++ {
				c := cs[ci]
				if c.src&srcLive == 0 {
					continue
				}
				off := (int(c.node) - cl) * slotSize
				if err := visit(c, stackSource{slot: buf[off : off+slotSize]}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Pending uncached run, in slot units, and its contributions.
	runStart, runEnd, runFirst := -1, -1, 0
	for i := 0; i < len(cs); {
		g := int(cs[i].node) / npg
		j, needLive := i, false
		for ; j < len(cs) && int(cs[j].node)/npg == g; j++ {
			needLive = needLive || cs[j].src&srcLive != 0
		}
		first := i
		i = j
		if !needLive {
			continue // images only: a gap, bridged below if the next group is near
		}
		lo := g * npg
		hi := min(lo+npg, n)
		if slab, ok := s.cache.Peek(g); ok {
			// Served from the decoded arena: no device traffic, and
			// coherent even when the group is dirty. Close any pending
			// device run first — bridging across this group would
			// visit its slots from stale device bytes.
			if runStart >= 0 {
				if err := flushRun(runStart, runEnd, runFirst, first); err != nil {
					return err
				}
				runStart = -1
			}
			if err := s.applyLeftover(q, lo, hi, nil); err != nil {
				return err
			}
			for _, c := range cs[first:j] {
				if c.src&srcLive == 0 {
					continue
				}
				if err := visit(c, stackSource{slab: slab, local: int(c.node) - lo}); err != nil {
					return err
				}
			}
			continue
		}
		if runStart >= 0 && lo-runEnd <= gapSlots {
			runEnd = hi // bridge the gap inside one sequential read
			continue
		}
		if runStart >= 0 {
			if err := flushRun(runStart, runEnd, runFirst, first); err != nil {
				return err
			}
		}
		runStart, runEnd, runFirst = lo, hi, first
	}
	if runStart >= 0 {
		return flushRun(runStart, runEnd, runFirst, len(cs))
	}
	return nil
}

// applyLeftover applies q's leftover batches of nodes [lo, hi) with the
// bookkeeping of a worker's apply (Engine.change): through the cache when
// slots is nil, their group being resident, and otherwise to their slots'
// bytes in slots, read off the device, in place (ApplyNodeBinary). The
// slots they changed go back in runs, each written once every change in it
// has ended: a run ends where the unchanged slots up to the next changed
// one hold a whole device block, which writing through would rewrite for
// nothing, so splitting there only ever writes fewer blocks.
func (s *deviceStore) applyLeftover(q *querySession, lo, hi int, slots []byte) error {
	e, size := s.e, s.e.slotSize
	block := s.dev.BlockSize()
	first, last := -1, -1
	for ; q.leftAt < len(q.left) && !q.left[q.leftAt].PreCut && int(q.left[q.leftAt].Node) < hi; q.leftAt++ {
		b := q.left[q.leftAt]
		v := int(b.Node)
		if v < lo {
			return fmt.Errorf("core: the query's pass skipped node %d's leftover batch", v)
		}
		var err error
		if slots == nil {
			err = e.change(e.ownerOf(b.Node), b, s.apply)
		} else {
			if last >= 0 && v > last && wholeBlockBetween((last+1)*size, v*size, block) {
				if err := s.writeLeftover(lo, first, last, slots); err != nil {
					return err
				}
				first = -1
			}
			slot := slots[(v-lo)*size : (v-lo+1)*size]
			err = e.change(e.ownerOf(b.Node), b, func(_ uint32, indices []uint64, img []byte) error {
				if img != nil {
					copy(img, slot)
				}
				return e.geometry.ApplyNodeBinary(slot, indices)
			})
			if first < 0 {
				first = v
			}
			last = v
		}
		if err != nil {
			return fmt.Errorf("core: applying leftover batch to node %d: %w", v, err)
		}
		e.buf.Recycle(b.Others)
	}
	if first < 0 {
		return nil
	}
	return s.writeLeftover(lo, first, last, slots)
}

// wholeBlockBetween reports whether device bytes [from, to) hold a whole
// aligned block.
func wholeBlockBetween(from, to, block int) bool {
	return (from+block-1)/block*block+block <= to
}

// writeLeftover writes slots [first, last] back, out of the chunk slots
// read from slot lo on.
func (s *deviceStore) writeLeftover(lo, first, last int, slots []byte) error {
	size := s.e.slotSize
	if err := s.store.WriteRange(uint32(first), last+1-first, slots[(first-lo)*size:(last+1-lo)*size]); err != nil {
		return fmt.Errorf("core: writing back leftover batches of nodes [%d,%d): %w", first, last+1, err)
	}
	return nil
}

func (s *deviceStore) stats(st *Stats) {
	st.SketchIO = s.dev.Stats()
	st.DiskBytes += s.store.TotalBytes()
	st.SketchCache = s.cache.Stats()
	st.MemoryBytes += st.SketchCache.CachedBytes
}

// close spills the dirty cached groups before the device goes away, so the
// device holds every applied update.
func (s *deviceStore) close() error {
	return errors.Join(s.cache.WriteBackAll(), s.dev.Close())
}
