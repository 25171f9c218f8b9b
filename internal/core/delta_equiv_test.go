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
// structural event family (a skewed multi-shard stream, disk placement,
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
// drawn from a small hot range, so its few nodes absorb most batches.
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

func TestDeltaQueryEquivalenceSkewed(t *testing.T) {
	t.Parallel()
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 11, Shards: 4,
		Buffering: BufferNone, // apply immediately so every step's query sees its toggles
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := &equivHarness{t: t, eng: eng, n: n,
		rng: rand.New(rand.NewPCG(11, 1)), present: map[stream.Edge]bool{}}
	for i := 0; i < 150; i++ {
		h.step(true) // skewed stream: a few hot nodes on four shards
	}
	h.requireDeltas()
}

func TestDeltaQueryEquivalenceDisk(t *testing.T) {
	t.Parallel()
	const n = 128
	eng, err := NewEngine(Config{
		NumNodes: n, Seed: 23, Shards: 2,
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
// checkpoint merges (XOR of another engine's state, which marks exactly
// its non-empty slots dirty: the next query must re-solve their
// components, never serve a stale baseline).
func TestDeltaQueryEquivalenceCheckpoint(t *testing.T) {
	t.Parallel()
	const n = 128
	cfg := Config{NumNodes: n, Seed: 31, Shards: 2, Buffering: BufferNone}
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
		NumNodes: n, Seed: 41, Shards: 2, Buffering: BufferNone,
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
			rec, _, err := RecoverChain("", nil, rcfg)
			if err != nil {
				t.Fatalf("RecoverChain at step %d: %v", i, err)
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
	eng, err := NewEngine(Config{NumNodes: n, Seed: 5, Shards: 2, Buffering: BufferNone})
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

	// Dirty more than deltaQueryMaxDirtyFrac of the nodes: fallback.
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

// installFull installs src's full checkpoint into e as its whole range.
func installFull(t *testing.T, e, src *Engine) {
	t.Helper()
	cp, err := e.ReadRange(bytes.NewReader(fullCheckpoint(t, src)), 0, e.cfg.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install(cp); err != nil {
		t.Fatal(err)
	}
}

// TestInstallFullCheckpointOverCachedResult pins a full refresh's install
// into an engine holding a cached result, in RAM and out of core. A node
// whose incoming slot equals its current bytes did not change, so the
// install lists exactly the nodes that differ, and the next query is a
// delta query over them, off the session's kept state, with the exact
// answer. An install whose slots all equal the engine's lists none, and
// the next query re-tags the cached result.
func TestInstallFullCheckpointOverCachedResult(t *testing.T) {
	const n = 64
	for _, onDisk := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "disk"}[onDisk], func(t *testing.T) {
			cfg := Config{NumNodes: n, Seed: 9, Shards: 2, Buffering: BufferNone}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			ecfg := cfg
			ecfg.SketchesOnDisk = onDisk
			e, err := NewEngine(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var edges []stream.Edge
			for u := uint32(0); u < 30; u++ {
				edges = append(edges, stream.Edge{U: u, V: u + 1})
			}
			if err := src.InsertEdges(edges); err != nil {
				t.Fatal(err)
			}
			installFull(t, e, src)
			checkAgainstExact(t, e, n, edges) // from scratch: nothing cached yet

			// The source moves on by one edge: only its endpoints' bytes differ.
			mustUpdate(t, src, 40, 41)
			edges = append(edges, stream.Edge{U: 40, V: 41})
			installFull(t, e, src)
			if st := e.Stats(); st.DirtyNodes != 2 {
				t.Fatalf("the install lists %d dirty nodes, want 2 (the new edge's endpoints)", st.DirtyNodes)
			}
			checkDeltaState(t, e)
			before := e.Stats()
			checkAgainstExact(t, e, n, edges)
			if st := e.Stats(); st.DeltaQueries != before.DeltaQueries+1 || st.DeltaFallbacks != before.DeltaFallbacks {
				t.Fatalf("query after the install: delta %d→%d, fallbacks %d→%d, want one delta query",
					before.DeltaQueries, st.DeltaQueries, before.DeltaFallbacks, st.DeltaFallbacks)
			}
			if !checkDeltaState(t, e) || e.qs.restores != 0 {
				t.Fatalf("the session rebuilt its kept state %d times, want 0", e.qs.restores)
			}

			// Every slot equal: nothing listed, and the next query re-tags.
			cached := e.queryCache.Load()
			installFull(t, e, src)
			if st := e.Stats(); st.DirtyNodes != 0 {
				t.Fatalf("an install of equal slots lists %d dirty nodes, want 0", st.DirtyNodes)
			}
			before = e.Stats()
			checkAgainstExact(t, e, n, edges)
			res := e.queryCache.Load()
			if st := e.Stats(); st.DeltaQueries != before.DeltaQueries+1 || st.QueryRounds != before.QueryRounds ||
				res == cached || &res.rep[0] != &cached.rep[0] {
				t.Fatal("the query after an install of equal slots did not re-tag the cached result")
			}
			checkDeltaState(t, e)
		})
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
	// Nor does it pay for images or logs no query will read.
	if images, logs, bufs, pooled := baselineCounts(eng); images+logs+bufs+pooled != 0 {
		t.Fatalf("NoDeltaQuery engine captured %d images and %d logs and pooled %d buffers and %d logs", images, logs, bufs, pooled)
	}
}

// --- Forest-edge deletions: the cut class ---

// deltaClassCounts reads the engine's per-class component counters
// (clean, intact, cut): what the delta path actually did.
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
// point is images in RAM over sketches on the device).
var forestCutModes = []struct {
	name  string
	cfg   Config
	limit int // the baseline's image cap (setImageCap), 0 keeps the derived one
}{
	{"ram", Config{Shards: 2}, 0},
	{"disk-cached", Config{Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4}, 0},
	{"disk-one-group", Config{Shards: 1, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: 1}, 16},
}

// setImageCap lets e's baseline hold images images: a capture budget of
// that many slots.
func setImageCap(e *Engine, images int) {
	e.capture.budget = images * e.slotSize
}

// TestDeltaQueryEquivalenceForestCuts deletes 1-4 edges of the engine's
// own cached forest per step, queries, puts most of them back, queries
// again, and now and then merges a sparse side checkpoint in (whose nodes
// take their images from the run the merge reads) — every answer checked
// against the exact components, in every placement, on graphs whose
// pieces come in every size.
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
					setImageCap(eng, mode.limit)
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
				// Every dirty node under the fallback threshold holds an
				// entry, in every placement, the merges' nodes included: no
				// baseline overflowed, so no query fell back.
				if f := eng.Stats().DeltaFallbacks; f != 0 {
					t.Fatalf("%d queries fell back: a dirty node's entry did not fit the budget", f)
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
// consumer — in RAM and on disk, where the replaced slots leave images
// behind alike — must answer every step exactly.
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
				if err := dst.ApplyDeltaCheckpoint(&buf); err != nil {
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
			if c := deltaClassCounts(dst); c[classCut] == 0 || c[classIntact] == 0 {
				t.Fatalf("%s consumer classes %v: cut and intact must both run", name, c)
			}
		})
	}
}

// TestDeltaQueryEquivalenceInstalled replays a coordinator's full
// refreshes: each round a source engine deletes a few of the cached
// forest's edges, and the engine under test, holding a cached result,
// installs the source's full checkpoint and must answer off the images
// the install took — the cut class on diffs that never went through its
// apply path — in RAM and out of core.
func TestDeltaQueryEquivalenceInstalled(t *testing.T) {
	const n = 128
	for _, onDisk := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "disk"}[onDisk], func(t *testing.T) {
			t.Parallel()
			cfg := Config{NumNodes: n, Seed: 71, Shards: 2, Buffering: BufferNone}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			ecfg := cfg
			ecfg.SketchesOnDisk, ecfg.NodesPerGroup = onDisk, 4
			e, err := NewEngine(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			h := &equivHarness{t: t, eng: e, n: n,
				rng: rand.New(rand.NewPCG(71, 1)), present: map[stream.Edge]bool{}}
			h.insertAll(src, shapeEdges("tree", n, h.rng))
			installFull(t, e, src)
			h.check()
			for i := 0; i < 20; i++ {
				cut := h.pickForestEdges(e, 1+int(h.rng.Uint64N(3)))
				h.deleteAll(src, cut)
				if len(cut) > 1 && i%2 == 1 {
					h.insertAll(src, cut[:1]) // net no-op on that edge: its endpoints may not even differ
				}
				before := e.Stats()
				installFull(t, e, src)
				h.check()
				if st := e.Stats(); st.DeltaQueries != before.DeltaQueries+1 || st.DeltaFallbacks != before.DeltaFallbacks {
					t.Fatalf("round %d: the query after the install ran delta %d→%d, fallbacks %d→%d",
						i, before.DeltaQueries, st.DeltaQueries, before.DeltaFallbacks, st.DeltaFallbacks)
				}
			}
			if deltaClassCounts(e)[classCut] == 0 {
				t.Fatal("no query after an install took the cut path")
			}
		})
	}
}

// --- The piece search's shapes ---

// pieceTwin runs the engine under test beside a from-scratch twin (delta
// queries off, sketches in RAM) over the same updates, and checks every
// answer against both the exact components and the twin's.
type pieceTwin struct {
	t         *testing.T
	eng, twin *Engine
	n         uint32
	present   map[stream.Edge]bool
}

// apply inserts or deletes edges on both engines.
func (p *pieceTwin) apply(edges []stream.Edge, insert bool) {
	p.t.Helper()
	for _, e := range []*Engine{p.eng, p.twin} {
		var err error
		if insert {
			err = e.InsertEdges(edges)
		} else {
			for _, eg := range edges {
				if err = e.DeleteEdge(eg.U, eg.V); err != nil {
					break
				}
			}
		}
		if err != nil {
			p.t.Fatal(err)
		}
	}
	for _, eg := range edges {
		p.present[eg.Normalize()] = insert
	}
}

// check queries both engines and compares; delta says the engine under test
// must have answered by the delta path.
func (p *pieceTwin) check(delta bool) (rep []uint32) {
	p.t.Helper()
	var edges []stream.Edge
	for eg, in := range p.present {
		if in {
			edges = append(edges, eg)
		}
	}
	before := p.eng.Stats()
	checkAgainstExact(p.t, p.eng, p.n, edges)
	after := p.eng.Stats()
	if delta && (after.DeltaQueries != before.DeltaQueries+1 || after.DeltaFallbacks != before.DeltaFallbacks) {
		p.t.Fatalf("not answered by the delta path: delta %d -> %d, fallbacks %d -> %d",
			before.DeltaQueries, after.DeltaQueries, before.DeltaFallbacks, after.DeltaFallbacks)
	}
	rep, count, err := p.eng.ConnectedComponents()
	if err != nil {
		p.t.Fatal(err)
	}
	twinRep, twinCount, err := p.twin.ConnectedComponents()
	if err != nil {
		p.t.Fatal(err)
	}
	if count != twinCount || !samePartition(rep, twinRep) {
		p.t.Fatalf("%d components, the from-scratch twin has %d, or the partitions differ", count, twinCount)
	}
	return rep
}

// newPieceTwin builds the engine under test in mode and its twin.
func newPieceTwin(t *testing.T, mode int, n uint32, seed uint64) *pieceTwin {
	cfg := forestCutModes[mode].cfg
	cfg.NumNodes, cfg.Seed, cfg.Buffering = n, seed, BufferNone
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if limit := forestCutModes[mode].limit; limit > 0 {
		setImageCap(eng, limit)
	}
	twin, err := NewEngine(Config{NumNodes: n, Seed: seed, Buffering: BufferNone, NoDeltaQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twin.Close() })
	return &pieceTwin{t: t, eng: eng, twin: twin, n: n, present: map[stream.Edge]bool{}}
}

// TestDeltaQueryPieceShapes drives the lockstep piece search through the
// shapes it has to get right, on trees, whose cached forest is the tree
// itself: removed forest edges nested on one root-to-leaf path of a binary
// tree (each inner piece holds two searches' starts, 1 and 7, 15 and 63,
// which must join),
// fanned out at a hub (four removed edges, one start on the hub's side),
// and a path cut into two pieces of equal size. Each cut is undone again,
// which merges the pieces back as intact components. Every answer is
// checked against the exact components and a from-scratch twin, in RAM
// and out of core, and every cut must take the cut class.
func TestDeltaQueryPieceShapes(t *testing.T) {
	const n = 128
	var heap, fan, path []stream.Edge
	for v := uint32(1); v < n; v++ {
		heap = append(heap, stream.Edge{U: (v - 1) / 2, V: v})
		path = append(path, stream.Edge{U: v - 1, V: v})
		if v < 8 {
			fan = append(fan, stream.Edge{U: 0, V: v}) // seven spokes
		} else {
			fan = append(fan, stream.Edge{U: v - 7, V: v}) // each a path
		}
	}
	shapes := []struct {
		name       string
		tree, cuts []stream.Edge
	}{
		{"nested", heap, []stream.Edge{{U: 0, V: 1}, {U: 7, V: 15}, {U: 63, V: 127}}},
		{"fanned", fan, []stream.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}},
		{"equal", path, []stream.Edge{{U: n/2 - 1, V: n / 2}}},
	}
	for mode := range forestCutModes {
		for si, shape := range shapes {
			t.Run(forestCutModes[mode].name+"/"+shape.name, func(t *testing.T) {
				t.Parallel()
				p := newPieceTwin(t, mode, n, 131+uint64(si))
				p.apply(shape.tree, true)
				p.check(false)
				for round := 0; round < 3; round++ {
					before := deltaClassCounts(p.eng)
					p.apply(shape.cuts, false)
					p.check(true)
					if c := deltaClassCounts(p.eng); c[classCut] != before[classCut]+1 {
						t.Fatalf("round %d: classes %v after %v: the cut must take the cut class", round, c, before)
					}
					p.apply(shape.cuts, true)
					p.check(true)
				}
			})
		}
	}
}

// TestDeltaQueryIntactMergeKeepsLabel: an edge joining a small intact
// component to a larger one merges them by size — the merged component
// keeps the larger one's cached label, even though the smaller one's
// dirty node comes first in node order and its root is listed first.
func TestDeltaQueryIntactMergeKeepsLabel(t *testing.T) {
	const n = 96
	for mode := range forestCutModes {
		t.Run(forestCutModes[mode].name, func(t *testing.T) {
			p := newPieceTwin(t, mode, n, 137)
			var small, large []stream.Edge
			for v := uint32(1); v < 10; v++ {
				small = append(small, stream.Edge{U: v - 1, V: v}) // nodes 0..9
			}
			for v := uint32(11); v < 70; v++ {
				large = append(large, stream.Edge{U: v - 1, V: v}) // nodes 10..69
			}
			p.apply(append(small, large...), true)
			cached := p.check(false)
			label := cached[10]
			p.apply([]stream.Edge{{U: 5, V: 40}}, true)
			rep := p.check(true)
			if c := deltaClassCounts(p.eng); c[classIntact] != 2 || c[classCut] != 0 {
				t.Fatalf("classes %v: both components must be intact", c)
			}
			for v := 0; v < 70; v++ {
				if rep[v] != label {
					t.Fatalf("node %d labelled %d after the merge, want the larger component's %d", v, rep[v], label)
				}
			}
		})
	}
}

// TestDeltaQueryCutMovesRepresentative cuts a path next to its cached
// representative r, on the side that leaves r in the smaller piece: the
// piece search enumerates r's piece, so r keeps it and the anchor piece's
// star is re-centred on one of its own members — the one cut whose work
// is the anchor's size. Both pieces' labels, and the answer after the
// path is mended, are checked against the exact components and a
// from-scratch twin, in RAM and out of core.
func TestDeltaQueryCutMovesRepresentative(t *testing.T) {
	const n = 64
	for mode := range forestCutModes {
		t.Run(forestCutModes[mode].name, func(t *testing.T) {
			p := newPieceTwin(t, mode, n, 139)
			var path []stream.Edge
			for v := uint32(1); v < n; v++ {
				path = append(path, stream.Edge{U: v - 1, V: v})
			}
			p.apply(path, true)
			r := p.check(false)[0]
			cut := stream.Edge{U: r, V: r + 1} // r's piece is [0, r]
			if r >= n/2 {
				cut = stream.Edge{U: r - 1, V: r} // r's piece is [r, n)
			}
			p.apply([]stream.Edge{cut}, false)
			rep := p.check(true)
			if !checkDeltaState(t, p.eng) {
				t.Fatal("the session did not keep the cut's result")
			}
			if c := deltaClassCounts(p.eng); c[classCut] != 1 {
				t.Fatalf("classes %v: the cut must take the cut class", c)
			}
			anchor := uint32(n - 1)
			if r >= n/2 {
				anchor = 0
			}
			if rep[r] != r || rep[anchor] == r {
				t.Fatalf("labels: r=%d keeps %d, the anchor piece has %d; want r's piece on r and the anchor re-centred", r, rep[r], rep[anchor])
			}
			p.apply([]stream.Edge{cut}, true)
			p.check(true)
			checkDeltaState(t, p.eng)
		})
	}
}
