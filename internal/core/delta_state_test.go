package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"graphzeppelin/internal/stream"
)

// This file pins the state a delta query works from and leaves behind:
// the dirty set the capture's baseline lists, the cached result's
// partition and forest that the session keeps between queries, and the
// published results, which never change.

// checkDeltaState checks e's kept state against its cached result, under
// the quiesce write lock with the workers drained (updates still in the
// gutters stay there). The dirty set the baseline lists is exactly the
// nodes stamped after the cached result's cut, or has overflowed past the
// delta query's threshold; Stats().DirtyNodes counts it exactly; and when
// the session's state is the cached result's, its DSU is one star per
// component on the result's representatives, its forest is the result's
// edge for edge, and its adjacency lists hold each forest edge once at
// each endpoint. It reports whether the session's state matched.
func checkDeltaState(t *testing.T, e *Engine) bool {
	t.Helper()
	e.quiesce.Lock()
	e.pending.Wait()
	res := e.queryCache.Load()
	var want, got []uint32
	ok := true
	if res != nil {
		want = e.changedSince(res.cut, nil)
		got, ok = e.capture.dirty(nil)
		slices.Sort(got)
	}
	e.quiesce.Unlock()
	if res == nil {
		return false
	}
	switch {
	case ok && !slices.Equal(got, want):
		t.Fatalf("the baseline lists %v as dirty, the stamps %v", got, want)
	case !ok && len(want) < e.capture.maxBase:
		t.Fatalf("the baseline overflowed with %d nodes stamped, under its %d", len(want), e.capture.maxBase)
	}
	if d := e.Stats().DirtyNodes; d != uint64(len(want)) {
		t.Fatalf("Stats().DirtyNodes = %d, the stamps say %d", d, len(want))
	}

	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	q := e.qs
	if q == nil || q.state != res {
		return false
	}
	n := int(e.n)
	parents := q.d.Parents()
	members := make(map[uint32]int)
	for v := 0; v < n; v++ {
		r := res.rep[v]
		if parents[v] != r || parents[r] != r {
			t.Fatalf("node %d: DSU parent %d, the result's representative %d (its parent %d)", v, parents[v], r, parents[r])
		}
		members[r]++
	}
	if q.d.Count() != res.count || len(members) != res.count {
		t.Fatalf("DSU count %d, %d representatives, the result's count %d", q.d.Count(), len(members), res.count)
	}
	for r, k := range members {
		if q.d.Size(r) != k {
			t.Fatalf("set of %d: DSU size %d, %d members", r, q.d.Size(r), k)
		}
	}
	if forest := res.forest; !slices.Equal(q.forest, forest) {
		t.Fatalf("the kept forest (%d edges) is not the result's (%d edges)", len(q.forest), len(forest))
	}
	seen := make([]int, 2*len(q.forest))
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for h := q.adjHead[v]; h >= 0; h = q.adjNext[h] {
			if int(h) >= len(seen) || q.at(h) != uint32(v) || q.adjPrev[h] != prev {
				t.Fatalf("node %d's adjacency list is broken at half-edge %d", v, h)
			}
			seen[h]++
			prev = h
		}
	}
	for h, k := range seen {
		if k != 1 {
			t.Fatalf("half-edge %d of forest edge %v is listed %d times", h, q.forest[h>>1], k)
		}
	}
	for _, eg := range q.forest {
		if res.rep[eg.U] != res.rep[eg.V] {
			t.Fatalf("forest edge %v joins two components", eg)
		}
	}
	return true
}

// stateHarness drives the engine under test beside twin, a RAM engine
// with delta queries off that receives the same updates, checkpoints and
// merges, so that each can install the other's checkpoints.
type stateHarness struct {
	*equivHarness
	twin     *Engine
	twinBase uint64 // the twin's last full seal
}

// toggle toggles k random edges on the engines named.
func (h *stateHarness) toggle(k int, engines ...*Engine) {
	h.t.Helper()
	for i := 0; i < k; i++ {
		eg := h.randEdge(false)
		h.present[eg] = !h.present[eg]
		if !h.present[eg] {
			delete(h.present, eg)
		}
		for _, e := range engines {
			mustUpdate(h.t, e, eg.U, eg.V)
		}
	}
}

// seal writes a full checkpoint of the twin, the base of its next delta.
func (h *stateHarness) seal() {
	h.t.Helper()
	if err := h.twin.WriteCheckpoint(io.Discard); err != nil {
		h.t.Fatal(err)
	}
	h.twinBase = h.twin.Stats().LastCheckpointID
}

// step runs one randomized step of the sequence.
func (h *stateHarness) step() {
	h.t.Helper()
	e, twin := h.eng, h.twin
	switch h.rng.Uint64N(11) {
	case 0, 1: // a trickle and its delta query
		h.toggle(1+int(h.rng.Uint64N(3)), e, twin)
		h.check()
	case 2: // a slice: past the threshold, the query falls back
		h.toggle(20+int(h.rng.Uint64N(20)), e, twin)
		h.check()
	case 3: // updates left in the gutters, or drained into the sketches
		h.toggle(1+int(h.rng.Uint64N(4)), e, twin)
		if h.rng.Uint64N(2) == 0 {
			if err := e.Drain(); err != nil {
				h.t.Fatal(err)
			}
		}
	case 4: // a cached query
		h.check()
		h.check()
	case 5: // a full seal, and a delta seal against it
		if err := e.WriteCheckpoint(io.Discard); err != nil {
			h.t.Fatal(err)
		}
		base := e.Stats().LastCheckpointID
		h.toggle(1+int(h.rng.Uint64N(3)), e, twin)
		if _, err := e.WriteDeltaCheckpoint(io.Discard, base); err != nil {
			h.t.Fatal(err)
		}
	case 6: // a side engine's checkpoint merged into both
		var side bytes.Buffer
		s, err := NewEngine(Config{NumNodes: h.n, Seed: e.cfg.Seed})
		if err != nil {
			h.t.Fatal(err)
		}
		h.toggle(1+int(h.rng.Uint64N(4)), s)
		err = errors.Join(s.WriteCheckpoint(&side), s.Close())
		if err != nil {
			h.t.Fatal(err)
		}
		for _, m := range []*Engine{e, twin} {
			if err := m.MergeCheckpoint(bytes.NewReader(side.Bytes())); err != nil {
				h.t.Fatal(err)
			}
		}
	case 7: // the twin's delta since its base installed into the engine
		h.toggle(1+int(h.rng.Uint64N(3)), twin)
		var buf bytes.Buffer
		if _, err := twin.WriteDeltaCheckpoint(&buf, h.twinBase); err != nil {
			h.t.Fatal(err)
		}
		cp, err := e.ReadRange(&buf, 0, h.n)
		if err != nil {
			h.t.Fatal(err)
		}
		if err := e.Install(cp); err != nil {
			h.t.Fatal(err)
		}
		h.seal()
		h.check()
	case 8, 9: // the twin, a trickle ahead, installs its full checkpoint into the engine
		h.toggle(1+int(h.rng.Uint64N(3)), twin)
		var buf bytes.Buffer
		if err := twin.WriteCheckpoint(&buf); err != nil {
			h.t.Fatal(err)
		}
		h.twinBase = twin.Stats().LastCheckpointID
		cp, err := e.ReadRange(&buf, 0, h.n)
		if err != nil {
			h.t.Fatal(err)
		}
		if err := e.Install(cp); err != nil {
			h.t.Fatal(err)
		}
		checkDeltaState(h.t, e)
		h.check()
	case 10: // the twin re-synced from the engine's full checkpoint
		if err := h.syncTwin(); err != nil {
			h.t.Fatal(err)
		}
	}
}

// syncTwin makes the twin's sketches the engine's, by installing the
// engine's full checkpoint into it.
func (h *stateHarness) syncTwin() error {
	var buf bytes.Buffer
	if err := h.eng.WriteCheckpoint(&buf); err != nil {
		return err
	}
	cp, err := h.twin.ReadRange(&buf, 0, h.n)
	if err != nil {
		return err
	}
	if err := h.twin.Install(cp); err != nil {
		return err
	}
	h.seal()
	return nil
}

// TestDeltaSessionStateMatchesRebuild runs a randomized sequence of
// applies, flushes, cached, delta and from-scratch queries, full and delta
// seals, delta and full installs and merges, in RAM and out of core, and
// after every step checks the dirty set and the kept state against what a
// rebuild from the cached result gives (checkDeltaState). Every cached
// result is one the session built, so it never rebuilds its state.
func TestDeltaSessionStateMatchesRebuild(t *testing.T) {
	const n = 128
	for _, mode := range forestCutModes {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			cfg := mode.cfg
			cfg.NumNodes, cfg.Seed = n, 151
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { eng.Close() }()
			if mode.limit > 0 {
				setImageCap(eng, mode.limit)
			}
			twin, err := NewEngine(Config{NumNodes: n, Seed: 151, NoDeltaQuery: true})
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			h := &stateHarness{
				equivHarness: &equivHarness{t: t, eng: eng, n: n,
					rng: rand.New(rand.NewPCG(151, 7)), present: map[stream.Edge]bool{}},
				twin: twin,
			}
			h.toggle(60, eng, twin)
			h.check()
			h.seal()
			kept := 0
			for i := 0; i < 150; i++ {
				h.step()
				if checkDeltaState(t, eng) {
					kept++
				}
			}
			h.requireDeltas()
			if restores := eng.qs.restores; restores > 0 || kept < 100 {
				t.Fatalf("%d rebuilds of the kept state, state kept after %d of 150 steps", restores, kept)
			}
		})
	}
}

// TestDeltaSessionStateAfterFailedRuns runs the engine at two sketch
// rounds, where a query over a long path fails (ErrQueryFailed): the
// failed run leaves the session's state stale, since it changed the DSU
// but cached nothing, and the next delta query off the older cached
// result rebuilds it once and answers exactly.
func TestDeltaSessionStateAfterFailedRuns(t *testing.T) {
	const n = 64
	for _, mode := range forestCutModes[:2] {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.NumNodes, cfg.Seed, cfg.Rounds = n, 157, 2
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var pairs, path []stream.Edge
			for v := uint32(0); v+1 < n; v += 2 {
				pairs = append(pairs, stream.Edge{U: v, V: v + 1})
			}
			for v := uint32(1); v+1 < 40; v += 2 {
				path = append(path, stream.Edge{U: v, V: v + 1})
			}
			if err := e.InsertEdges(pairs); err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, e, n, pairs)
			checkDeltaState(t, e)
			failed := 0
			for round := 0; round < 4; round++ {
				if err := e.InsertEdges(path); err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.ConnectedComponents(); errors.Is(err, ErrQueryFailed) {
					failed++
					if checkDeltaState(t, e) {
						t.Fatal("a failed run left the session's state marked as the cached result's")
					}
				} else if err != nil {
					t.Fatal(err)
				}
				before := e.qs.restores
				for _, eg := range path {
					mustUpdate(t, e, eg.U, eg.V)
				}
				st := e.Stats()
				checkAgainstExact(t, e, n, pairs)
				if !checkDeltaState(t, e) {
					t.Fatal("the state does not match the cached result after a successful query")
				}
				if after := e.Stats(); after.DeltaQueries == st.DeltaQueries && after.DeltaFallbacks == st.DeltaFallbacks {
					t.Fatal("the query after the path's removal was answered from the cache")
				}
				if e.qs.restores > before+1 {
					t.Fatalf("%d rebuilds for one query", e.qs.restores-before)
				}
			}
			if failed == 0 {
				t.Fatal("no query failed at two rounds: the test is vacuous")
			}
		})
	}
}

// TestDeltaResultsNeverChange deep-copies every published result's
// representatives and forest and checks, after 20 later queries over
// trickles that attach, detach and merge components, that none of them
// changed: the session patches its kept partition and forest in place,
// so a result must never alias them.
func TestDeltaResultsNeverChange(t *testing.T) {
	const n = 600
	for _, mode := range forestCutModes[:2] {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.NumNodes, cfg.Seed = n, 163
			e, path, attach := reservedTrickle(t, cfg)
			checkAgainstExact(t, e, n, path)
			type copied struct {
				res    *queryResult
				rep    []uint32
				forest []stream.Edge
			}
			var published []copied
			rng := rand.New(rand.NewPCG(163, 1))
			var cut stream.Edge
			for i := 0; i < 40; i++ {
				switch i % 4 {
				case 0, 2: // attach or detach the reserved node
					for _, eg := range attach {
						mustUpdate(t, e, eg.U, eg.V)
					}
				case 1: // cut the path somewhere
					cut = path[rng.Uint64N(uint64(len(path)))]
					mustUpdate(t, e, cut.U, cut.V)
				case 3: // and mend it
					mustUpdate(t, e, cut.U, cut.V)
				}
				res, err := e.query()
				if err != nil {
					t.Fatal(err)
				}
				published = append(published, copied{res, slices.Clone(res.rep), slices.Clone(res.forest)})
			}
			for i, p := range published[:20] {
				if !slices.Equal(p.rep, p.res.rep) || !slices.Equal(p.forest, p.res.forest) {
					t.Fatalf("result %d changed after it was published", i)
				}
			}
			if e.Stats().DeltaQueries < 20 {
				t.Fatalf("%d delta queries: the test is vacuous", e.Stats().DeltaQueries)
			}
		})
	}
}
