package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// The randomized equivalence harness for incremental query maintenance:
// every sub-test interleaves small edge deltas, larger batches, and one
// structural event family (rebalancer migrations, disk placement,
// checkpoint restore + merge, WAL crash/recover cycles), querying after
// every step and asserting the engine's partition matches a parity-map
// reference computed from scratch. The point is that a delta query — the
// cached forest plus a re-solve of only the dirtied components — is
// indistinguishable from a full Boruvka no matter which apply path set
// the dirty bits.

// equivHarness drives one engine against an exact parity reference.
type equivHarness struct {
	t       *testing.T
	eng     *Engine
	n       uint32
	rng     *rand.Rand
	present map[stream.Edge]bool
	// deltaTotal carries DeltaQueries counts across engine replacements
	// (checkpoint restores, crash recoveries) so the vacuity check sees
	// the whole run, not just the last engine's life.
	deltaTotal uint64
}

// retire accumulates the outgoing engine's counters before a replacement.
func (h *equivHarness) retire() {
	h.deltaTotal += h.eng.Stats().DeltaQueries
}

// randEdge picks a random normalized edge; with skew set, one endpoint is
// drawn from a small hot range so a few shard slices absorb most pushes
// (the rebalancer's trigger condition).
func (h *equivHarness) randEdge(skew bool) stream.Edge {
	for {
		var u uint32
		if skew {
			u = uint32(h.rng.Uint64N(uint64(h.n / 8)))
		} else {
			u = uint32(h.rng.Uint64N(uint64(h.n)))
		}
		v := uint32(h.rng.Uint64N(uint64(h.n)))
		eg := stream.Edge{U: u, V: v}.Normalize()
		if eg.U != eg.V {
			return eg
		}
	}
}

// toggle applies k random edge toggles through the public insert/delete
// API and mirrors them in the parity map.
func (h *equivHarness) toggle(k int, skew bool) {
	h.t.Helper()
	for i := 0; i < k; i++ {
		eg := h.randEdge(skew)
		if h.present[eg] {
			delete(h.present, eg)
			if err := h.eng.DeleteEdge(eg.U, eg.V); err != nil {
				h.t.Fatal(err)
			}
		} else {
			h.present[eg] = true
			if err := h.eng.InsertEdge(eg.U, eg.V); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// check queries the engine and compares its partition against the exact
// reference over the parity map.
func (h *equivHarness) check() {
	h.t.Helper()
	edges := make([]stream.Edge, 0, len(h.present))
	for eg := range h.present {
		edges = append(edges, eg)
	}
	checkAgainstExact(h.t, h.eng, h.n, edges)
}

// step runs one randomized step: usually a small delta (the incremental
// path's bread and butter), sometimes a burst past the dirty-fraction
// threshold (forcing the documented fallback), always followed by a
// query-and-compare.
func (h *equivHarness) step(skew bool) {
	h.t.Helper()
	switch h.rng.Uint64N(10) {
	case 0, 1:
		h.toggle(12+int(h.rng.Uint64N(30)), skew) // burst: over threshold
	default:
		h.toggle(1+int(h.rng.Uint64N(3)), skew) // small delta
	}
	h.check()
}

// requireDeltas fails the harness if no incremental query ever ran — the
// equivalence assertions would be vacuous.
func (h *equivHarness) requireDeltas() {
	h.t.Helper()
	st := h.eng.Stats()
	if st.DeltaQueries+h.deltaTotal == 0 {
		h.t.Fatalf("no delta queries ran (fallbacks=%d): harness is vacuous", st.DeltaFallbacks)
	}
}

func TestDeltaQueryEquivalenceRebalanced(t *testing.T) {
	t.Parallel()
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 11, Shards: 4, Workers: 4,
		Buffering: BufferNone, // apply immediately so every step's query sees its toggles
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(11, 1)), present: map[stream.Edge]bool{}}
	for i := 0; i < 150; i++ {
		h.step(true) // skewed stream: migrations move applies across shards
	}
	h.requireDeltas()
}

func TestDeltaQueryEquivalenceDisk(t *testing.T) {
	t.Parallel()
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 23, Shards: 2, Workers: 2,
		SketchesOnDisk: true, Buffering: BufferNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(23, 2)), present: map[stream.Edge]bool{}}
	for i := 0; i < 60; i++ {
		h.step(false)
	}
	h.requireDeltas()
}

// TestDeltaQueryEquivalenceCheckpoint interleaves deltas with checkpoint
// round trips (restore forgets the cache: next query is cold) and
// checkpoint merges (XOR of another engine's state: dirty-everything, so
// the next query must fall back to a full run, never serve a stale
// baseline).
func TestDeltaQueryEquivalenceCheckpoint(t *testing.T) {
	t.Parallel()
	const n = 128
	cfg := Config{NumNodes: n, Seed: 31, Shards: 2, Workers: 2, Buffering: BufferNone}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(31, 3)), present: map[stream.Edge]bool{}}
	defer func() { h.eng.Close() }()

	for i := 0; i < 120; i++ {
		h.step(false)
		switch {
		case i%40 == 19:
			// Round trip: serialize, restore into a fresh engine, drop the old.
			var buf bytes.Buffer
			if err := h.eng.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadCheckpoint(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h.retire()
			h.eng.Close()
			h.eng = back
			h.check()
		case i%40 == 39:
			// Merge a side engine's sketches in. XOR semantics: edges the
			// side engine holds toggle in the merged graph, so the parity
			// map toggles the same set.
			h.mergeSide(cfg, 8)
			h.check()
		}
	}
	h.requireDeltas()
}

// TestDeltaQueryEquivalenceWAL interleaves deltas with full
// crash/recover cycles: the WAL replays through the normal batch path,
// so the recovered engine's first query is cold and subsequent deltas
// pick up from its fresh cache.
func TestDeltaQueryEquivalenceWAL(t *testing.T) {
	t.Parallel()
	const n = 128
	st := wal.NewMemStorage(64)
	cfg := Config{
		NumNodes: n, Seed: 41, Shards: 2, Workers: 2, Buffering: BufferNone,
		WAL: true, WALStorage: st, WALSegmentBytes: 1 << 14,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(41, 4)), present: map[stream.Edge]bool{}}
	defer func() { h.eng.Close() }()

	for i := 0; i < 90; i++ {
		h.step(false)
		if i%30 == 29 {
			crashed := st.Crash(nil) // FsyncBatch: every acked toggle survives
			h.retire()
			h.eng.Close()
			rcfg := cfg
			rcfg.WALStorage = crashed
			rec, _, err := Recover("", rcfg)
			if err != nil {
				t.Fatalf("Recover at step %d: %v", i, err)
			}
			st = crashed
			h.eng = rec
			h.check()
		}
	}
	h.requireDeltas()
}

// TestDeltaStatsCounters pins the observable counter semantics: small
// deltas count as DeltaQueries, an over-threshold burst counts as a
// fallback, and DirtyNodes reports the union of the per-shard vectors
// (an edge toggle dirties both endpoints; re-toggling adds nothing).
func TestDeltaStatsCounters(t *testing.T) {
	const n = 64
	eng, err := NewEngine(Config{NumNodes: n, Seed: 5, Shards: 2, Workers: 2, Buffering: BufferNone})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mustUpdate(t, eng, 0, 1)
	if _, _, err := eng.ConnectedComponents(); err != nil { // cold: no prior cache
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.DeltaQueries != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("cold query counted as delta: %+v", st)
	}

	mustUpdate(t, eng, 2, 3)
	mustUpdate(t, eng, 2, 3)            // same edge again: same two dirty nodes
	if err := eng.Drain(); err != nil { // Stats does not drain; the workers must land first
		t.Fatal(err)
	}
	if got := eng.Stats().DirtyNodes; got != 2 {
		t.Fatalf("DirtyNodes = %d, want 2 (union, not sum)", got)
	}
	if _, _, err := eng.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DeltaQueries != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("after small delta: DeltaQueries=%d DeltaFallbacks=%d, want 1/0",
			st.DeltaQueries, st.DeltaFallbacks)
	}
	if st.DirtyNodes != 0 {
		t.Fatalf("DirtyNodes = %d after successful query, want 0", st.DirtyNodes)
	}

	// Dirty more than DeltaQueryMaxDirtyFrac of the nodes: fallback.
	for u := uint32(0); u < n/2; u += 2 {
		mustUpdate(t, eng, u, u+1)
	}
	if _, _, err := eng.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DeltaFallbacks != 1 {
		t.Fatalf("over-threshold query: DeltaFallbacks=%d, want 1", st.DeltaFallbacks)
	}

	// A query on a quiet engine with zero dirty nodes that misses the
	// epoch fast path is still incremental (trivially: carry everything).
	if _, err := eng.SpanningForest(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptQueryBaseline covers the coordinator-refresh seeding path: a
// fresh engine rebuilt from checkpoint merges adopts the outgoing
// engine's cached result, and its next query runs the delta path over
// exactly the nodes whose sketches differ.
func TestAdoptQueryBaseline(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 9, Workers: 2, Buffering: BufferNone}
	old, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	var edges []stream.Edge
	for u := uint32(0); u < 30; u++ {
		mustUpdate(t, old, u, u+1)
		edges = append(edges, stream.Edge{U: u, V: u + 1})
	}
	if _, _, err := old.ConnectedComponents(); err != nil { // cache a baseline
		t.Fatal(err)
	}

	// Rebuild "the next refresh": same state plus a couple of new edges,
	// arriving via checkpoint merge (which marks exactly the non-empty
	// incoming slots dirty).
	var buf bytes.Buffer
	if err := old.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.MergeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, fresh, 40, 41)
	edges = append(edges, stream.Edge{U: 40, V: 41})

	// The merged checkpoint's non-empty slots are nodes 0..30 (31 nodes);
	// the direct update dirties 40 and 41 on top.
	if err := fresh.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DirtyNodes != 33 {
		t.Fatalf("pre-adoption DirtyNodes = %d, want 33 (merge marks exactly the non-empty slots)", st.DirtyNodes)
	}
	if !fresh.AdoptQueryBaseline(old) {
		t.Fatal("AdoptQueryBaseline refused compatible engines")
	}
	if st := fresh.Stats(); st.DirtyNodes != 2 {
		t.Fatalf("post-adoption DirtyNodes = %d, want 2 (only the new edge's endpoints differ)", st.DirtyNodes)
	}
	checkAgainstExact(t, fresh, n, edges)
	if st := fresh.Stats(); st.DeltaQueries != 1 {
		t.Fatalf("adopted baseline query: DeltaQueries=%d, want 1", st.DeltaQueries)
	}

	// Geometry mismatch and disk placement are refused without touching state.
	other, err := NewEngine(Config{NumNodes: n, Seed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if fresh.AdoptQueryBaseline(other) {
		t.Fatal("adopted a baseline with a different seed")
	}
	if fresh.AdoptQueryBaseline(nil) || fresh.AdoptQueryBaseline(fresh) {
		t.Fatal("adopted nil or self")
	}
}

// TestDeltaDisabledAblation pins the NoDeltaQuery knob: with it set the
// engine answers identically but never takes the incremental path.
func TestDeltaDisabledAblation(t *testing.T) {
	const n = 64
	eng, err := NewEngine(Config{NumNodes: n, Seed: 13, Buffering: BufferNone, NoDeltaQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var edges []stream.Edge
	for i := 0; i < 6; i++ {
		u := uint32(i * 2)
		mustUpdate(t, eng, u, u+1)
		edges = append(edges, stream.Edge{U: u, V: u + 1})
		checkAgainstExact(t, eng, n, edges)
	}
	if st := eng.Stats(); st.DeltaQueries != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("NoDeltaQuery engine took the delta path: %+v", st)
	}
	// Nor does it pay for images no query will read.
	if images, pooled := beforeCounts(eng); images != 0 || pooled != 0 {
		t.Fatalf("NoDeltaQuery engine captured %d images and pooled %d buffers", images, pooled)
	}
}

// --- Forest-edge deletions: the cut and from-singletons classes ---

// deltaClassCounts reads the engine's per-class component counters
// (intact, cut, from singletons): what the delta path actually did.
func deltaClassCounts(e *Engine) (c [numDeltaClasses]uint64) {
	for i := range c {
		c[i] = e.deltaClasses[i].Load()
	}
	return c
}

// shapeEdges returns the harness graphs whose cached forests cut into
// pieces of every size: a path (a cut in the middle halves it), a random
// recursive tree (mostly leaves and small sub-trees), and a dense graph
// (a deleted forest edge rarely disconnects anything, so the pieces are
// re-joined by the very next sample).
func shapeEdges(shape string, n uint32, rng *rand.Rand) []stream.Edge {
	var edges []stream.Edge
	switch shape {
	case "path":
		for u := uint32(0); u+1 < n; u++ {
			edges = append(edges, stream.Edge{U: u, V: u + 1})
		}
	case "tree":
		for v := uint32(1); v < n; v++ {
			edges = append(edges, stream.Edge{U: rng.Uint32N(v), V: v})
		}
	case "dense":
		for u := uint32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Uint32N(4) == 0 {
					edges = append(edges, stream.Edge{U: u, V: v})
				}
			}
		}
	}
	return edges
}

// insertAll ingests edges as insertions on eng and mirrors them in the
// parity map.
func (h *equivHarness) insertAll(eng *Engine, edges []stream.Edge) {
	h.t.Helper()
	if err := eng.InsertEdges(edges); err != nil {
		h.t.Fatal(err)
	}
	for _, eg := range edges {
		h.present[eg.Normalize()] = true
	}
}

// pickForestEdges draws up to k distinct edges of the cached spanning
// forest forestOf currently answers with — the deletions that can really
// disconnect a cached component, and the only ones that send the delta
// query down its cut path — and removes them from the parity map. The
// caller deletes them on whichever engine feeds the one under test.
func (h *equivHarness) pickForestEdges(forestOf *Engine, k int) []stream.Edge {
	h.t.Helper()
	forest, err := forestOf.SpanningForest()
	if err != nil {
		h.t.Fatal(err)
	}
	if k > len(forest) {
		k = len(forest)
	}
	var cut []stream.Edge
	for _, idx := range h.rng.Perm(len(forest))[:k] {
		eg := forest[idx].Normalize()
		if !h.present[eg] {
			h.t.Fatalf("forest edge %v is not an edge of the graph", eg)
		}
		delete(h.present, eg)
		cut = append(cut, eg)
	}
	return cut
}

// deleteAll ingests edges as deletions on eng.
func (h *equivHarness) deleteAll(eng *Engine, edges []stream.Edge) {
	h.t.Helper()
	for _, eg := range edges {
		if err := eng.DeleteEdge(eg.U, eg.V); err != nil {
			h.t.Fatal(err)
		}
	}
}

// forestCutModes are the placements the forest-cut harness runs in. The
// one-group cache evicts a trickle's dirty nodes before the query reads
// them (its derived image cap would be zero, so the test raises it: the
// point is images in RAM over sketches on the device), and the uncached
// path captures its images from the slot round trip.
var forestCutModes = []struct {
	name  string
	cfg   Config
	limit int // beforeLimit override, 0 keeps the derived one
}{
	{"ram", Config{Shards: 2}, 0},
	{"disk-cached", Config{Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4}, 0},
	{"disk-one-group", Config{Shards: 1, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: 1}, 16},
	{"disk-uncached", Config{Shards: 2, SketchesOnDisk: true, CacheBytes: -1}, 0},
}

// TestDeltaQueryEquivalenceForestCuts deletes 1-4 edges of the engine's
// own cached forest per step, queries, puts most of them back, queries
// again, and now and then merges a sparse side checkpoint in (which out of
// core leaves its nodes imageless: the from-singletons class) — every
// answer checked against the exact components, in every placement, on
// graphs whose pieces come in every size.
func TestDeltaQueryEquivalenceForestCuts(t *testing.T) {
	const n = 128
	for _, mode := range forestCutModes {
		for si, shape := range []string{"path", "tree", "dense"} {
			t.Run(mode.name+"/"+shape, func(t *testing.T) {
				t.Parallel()
				cfg := mode.cfg
				cfg.NumNodes, cfg.Seed, cfg.Buffering = n, 61+uint64(si), BufferNone
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				if mode.limit > 0 {
					eng.beforeLimit = mode.limit
				}
				h := &equivHarness{t: t, eng: eng, n: n,
					rng: rand.New(rand.NewPCG(61, uint64(si))), present: map[stream.Edge]bool{}}
				h.insertAll(eng, shapeEdges(shape, n, h.rng))
				h.check()
				if shape == "path" {
					// The cut that halves the component: the smaller half is
					// re-materialized member by member.
					mid := stream.Edge{U: n/2 - 1, V: n / 2}
					delete(h.present, mid)
					h.deleteAll(eng, []stream.Edge{mid})
					h.check()
					h.insertAll(eng, []stream.Edge{mid})
					h.check()
				}
				for i := 0; i < 40; i++ {
					cut := h.pickForestEdges(eng, 1+int(h.rng.Uint64N(4)))
					h.deleteAll(eng, cut)
					h.check()
					var back []stream.Edge
					for _, eg := range cut {
						if h.rng.Uint64N(4) != 0 {
							back = append(back, eg)
						}
					}
					h.insertAll(eng, back)
					if h.rng.Uint64N(3) == 0 {
						h.toggle(1+int(h.rng.Uint64N(2)), false)
					}
					h.check()
					if i%8 == 7 {
						h.mergeSide(cfg, 3)
						h.check()
					}
				}
				c := deltaClassCounts(eng)
				if c[classIntact] == 0 || c[classCut] == 0 {
					t.Fatalf("classes intact=%d cut=%d: harness is vacuous", c[classIntact], c[classCut])
				}
				// In RAM every dirty node under the fallback threshold holds an
				// image; out of core the merges above leave theirs without.
				if cfg.SketchesOnDisk && c[classSingletons] == 0 {
					t.Fatal("no component re-solved from singletons: the imageless fallback never ran")
				}
			})
		}
	}
}

// mergeSide XORs a side engine holding k random edges into the harness
// engine through a checkpoint, toggling the same edges in the parity map.
func (h *equivHarness) mergeSide(cfg Config, k int) {
	h.t.Helper()
	cfg.SketchesOnDisk, cfg.CacheBytes, cfg.NodesPerGroup = false, 0, 0
	side, err := NewEngine(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	defer side.Close()
	seen := map[stream.Edge]bool{}
	for len(seen) < k {
		eg := h.randEdge(false)
		if seen[eg] {
			continue
		}
		seen[eg] = true
		if err := side.InsertEdge(eg.U, eg.V); err != nil {
			h.t.Fatal(err)
		}
		if h.present[eg] {
			delete(h.present, eg)
		} else {
			h.present[eg] = true
		}
	}
	var buf bytes.Buffer
	if err := side.WriteCheckpoint(&buf); err != nil {
		h.t.Fatal(err)
	}
	if err := h.eng.MergeCheckpoint(&buf); err != nil {
		h.t.Fatal(err)
	}
}

// TestDeltaQueryEquivalenceApplyDelta feeds the engine under test through
// ApplyDeltaCheckpoint only: a RAM producer takes the forest-edge
// deletions and re-insertions, seals a sparse delta per step, and the
// consumer — in RAM, where the replaced slots leave images behind, and on
// disk, where they do not — must answer every step exactly.
func TestDeltaQueryEquivalenceApplyDelta(t *testing.T) {
	const n = 128
	for _, onDisk := range []bool{false, true} {
		name := "ram"
		if onDisk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{NumNodes: n, Seed: 67, Shards: 2, Buffering: BufferNone}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			h := &equivHarness{t: t, n: n,
				rng: rand.New(rand.NewPCG(67, 1)), present: map[stream.Edge]bool{}}
			h.insertAll(src, shapeEdges("tree", n, h.rng))
			var full bytes.Buffer
			if err := src.WriteCheckpoint(&full); err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.SketchesOnDisk, ccfg.NodesPerGroup = onDisk, 4
			dst, err := ReadCheckpoint(&full, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			h.eng = dst
			h.check()
			ship := func() {
				t.Helper()
				var buf bytes.Buffer
				delta, err := src.WriteDeltaCheckpoint(&buf, dst.Stats().LastCheckpointID)
				if err != nil || !delta {
					t.Fatalf("sealing a delta: delta=%v err=%v", delta, err)
				}
				if err := dst.ApplyDeltaCheckpoint(&buf, nil); err != nil {
					t.Fatal(err)
				}
				h.check()
			}
			for i := 0; i < 30; i++ {
				cut := h.pickForestEdges(dst, 1+int(h.rng.Uint64N(3)))
				h.deleteAll(src, cut)
				ship()
				h.insertAll(src, cut[:len(cut)-1])
				ship()
			}
			c := deltaClassCounts(dst)
			if onDisk {
				if c[classSingletons] == 0 {
					t.Fatalf("disk consumer never re-solved from singletons: %v", c)
				}
			} else if c[classCut] == 0 || c[classIntact] == 0 {
				t.Fatalf("RAM consumer classes %v: cut and intact must both run", c)
			}
		})
	}
}

// TestDeltaQueryEquivalenceAdopted replays the coordinator's refresh: each
// round builds a fresh engine from the old one's checkpoint plus a few
// forest-edge deletions, adopts the old engine's cached result, and must
// answer off the adopted images — the cut class on diffs that never went
// through this engine's apply path.
func TestDeltaQueryEquivalenceAdopted(t *testing.T) {
	const n = 128
	cfg := Config{NumNodes: n, Seed: 71, Shards: 2, Buffering: BufferNone}
	old, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &equivHarness{t: t, eng: old, n: n,
		rng: rand.New(rand.NewPCG(71, 1)), present: map[stream.Edge]bool{}}
	defer func() { h.eng.Close() }()
	h.insertAll(old, shapeEdges("tree", n, h.rng))
	h.check()
	var cuts uint64
	for i := 0; i < 20; i++ {
		old := h.eng
		cut := h.pickForestEdges(old, 1+int(h.rng.Uint64N(3)))
		var buf bytes.Buffer
		if err := old.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.MergeCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		h.deleteAll(fresh, cut)
		if len(cut) > 1 && i%2 == 1 {
			h.insertAll(fresh, cut[:1]) // net no-op on that edge: its endpoints may not even differ
		}
		if !fresh.AdoptQueryBaseline(old) {
			t.Fatal("AdoptQueryBaseline refused")
		}
		h.eng = fresh
		h.check()
		if st := fresh.Stats(); st.DeltaQueries != 1 || st.DeltaFallbacks != 0 {
			t.Fatalf("round %d: adopted query ran delta=%d fallback=%d", i, st.DeltaQueries, st.DeltaFallbacks)
		}
		cuts += deltaClassCounts(fresh)[classCut]
		old.Close()
	}
	if cuts == 0 {
		t.Fatal("no adopted query took the cut path")
	}
}
