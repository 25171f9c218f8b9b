package core

import (
	"bytes"
	"slices"
	"testing"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/stream"
)

// This file pins the out-of-core from-scratch query's pass over the store:
// the same answer as the per-round definition (a RAM engine on the same
// seed), the number of rounds that read the device under the one-pass
// rule (round 0's pass gathers the rounds after it; a round past them
// scans with k = min(Rounds-r, max(1, V/L)); a giant's members are never
// read), the arena's bound, the fresh scan when held aggregates stop
// covering a live root, and the giant's complement in both stores.

// stepRounds runs a from-scratch query on a drained engine one round at a
// time, outside the query entry points (no producer runs in these tests, so
// the idle workers stand in for the quiesce lock). It returns the session,
// the forest and the live-root count each round began with; each, if not
// nil, is called before each round.
func stepRounds(t *testing.T, e *Engine, each func(q *querySession, round int)) (q *querySession, forest []stream.Edge, live []int) {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	q = newQuerySession(int(e.cfg.NumNodes))
	for round := 0; round < e.cfg.Rounds; round++ {
		if each != nil {
			each(q, round)
		}
		_, ran, err := e.boruvkaRound(q, round)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
		live = append(live, len(q.roots))
	}
	return q, q.forest, live
}

// evictAll drains e and drops its write-back cache, spilling the dirty
// groups first, so the next query's scans read every group off the device.
func evictAll(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.sketches.invalidate(); err != nil {
		t.Fatal(err)
	}
}

// scansFor replays the one-pass rule over a query's live-root counts: round
// 0 is one pass that gathers rounds [1, passEnd), and a later round scans
// when the arena does not reach it. A scan reads the device unless its one
// live root is the giant, whose aggregate is then the complement of
// nothing.
func scansFor(numNodes, rounds, passEnd int, live []int) (scans int) {
	end := passEnd
	for r, l := range live {
		switch {
		case r == 0:
			scans++
		case r >= end:
			if l > 1 {
				scans++
			}
			end = r + min(rounds-r, max(1, numNodes/l))
		}
	}
	return scans
}

// readRounds runs a from-scratch query on e one round at a time and
// returns the device reads of each round, the depth round 0's pass
// gathered to (passEnd) and the live counts.
func readRounds(t *testing.T, e *Engine, each func(q *querySession, round int)) (reads []uint64, passEnd int, live []int) {
	t.Helper()
	var at []uint64
	_, _, live = stepRounds(t, e, func(q *querySession, round int) {
		at = append(at, e.Stats().SketchIO.ReadOps)
		if round == 1 {
			passEnd = q.arenaEnd
		}
		if each != nil {
			each(q, round)
		}
	})
	at = append(at, e.Stats().SketchIO.ReadOps)
	for i := range live {
		reads = append(reads, at[i+1]-at[i])
	}
	return reads, passEnd, live
}

// scanned counts the rounds that read the device.
func scanned(reads []uint64) (scans int) {
	for _, r := range reads {
		if r > 0 {
			scans++
		}
	}
	return scans
}

// lookaheadGraphs are the shapes the equivalence is checked on: live roots
// that roughly halve per round (path), collapse in one round (star, dense)
// or mostly certify early (many small components, and pairs, whose n/2
// components outgrow round 0's stacks at depth 4, so the pass narrows
// them).
func lookaheadGraphs(n uint32) map[string][]stream.Edge {
	g := map[string][]stream.Edge{}
	for u := uint32(0); u+1 < n; u++ {
		if u%2 == 0 {
			g["pairs"] = append(g["pairs"], stream.Edge{U: u, V: u + 1})
		}
		g["path"] = append(g["path"], stream.Edge{U: u, V: u + 1})
		g["star"] = append(g["star"], stream.Edge{U: 0, V: u + 1})
		if u%4 != 3 {
			g["small-components"] = append(g["small-components"], stream.Edge{U: u, V: u + 1})
		}
		for v := u + 1; v < n; v++ {
			if (u*31+v*17)%3 == 0 || v == u+1 {
				g["dense"] = append(g["dense"], stream.Edge{U: u, V: v})
			}
		}
	}
	return g
}

// TestLookaheadMatchesPerRound: on every shape and every placement of the
// store — a cache of one group, of an eighth of it over groups of four,
// everything resident — the out-of-core query returns the forest, the
// representatives and the round count of a RAM engine on the same seed,
// whose rounds each sum exactly one round's sketches.
func TestLookaheadMatchesPerRound(t *testing.T) {
	const n = 64
	probe, err := NewEngine(Config{NumNodes: n, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(probe.slotSize)
	probe.Close()
	placements := map[string]Config{
		"one-group": {SketchesOnDisk: true, CacheBytes: 1},
		"eighth":    {SketchesOnDisk: true, CacheBytes: n * slot / 8, NodesPerGroup: 4, Shards: 2},
		"resident":  {SketchesOnDisk: true},
	}
	for shape, edges := range lookaheadGraphs(n) {
		ram, err := NewEngine(Config{NumNodes: n, Seed: 101})
		if err != nil {
			t.Fatal(err)
		}
		if err := ram.InsertEdges(edges); err != nil {
			t.Fatal(err)
		}
		wantForest, err := ram.SpanningForest()
		if err != nil {
			t.Fatal(err)
		}
		wantRep, wantCount, _ := ram.ConnectedComponents()
		wantRounds := ram.Stats().QueryRounds
		ram.Close()
		for place, cfg := range placements {
			t.Run(shape+"/"+place, func(t *testing.T) {
				cfg.NumNodes, cfg.Seed, cfg.DeviceFactory = n, 101, memFactory(512)
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.InsertEdges(edges); err != nil {
					t.Fatal(err)
				}
				forest, err := e.SpanningForest()
				if err != nil {
					t.Fatal(err)
				}
				rep, count, _ := e.ConnectedComponents()
				if !slices.Equal(forest, wantForest) || !slices.Equal(rep, wantRep) || count != wantCount {
					t.Fatalf("answer differs from the RAM engine's: %d forest edges and %d components, want %d and %d",
						len(forest), count, len(wantForest), wantCount)
				}
				if got := e.Stats().QueryRounds; got != wantRounds {
					t.Fatalf("%d rounds, the RAM engine took %d", got, wantRounds)
				}
				checkAgainstExact(t, e, n, edges)
			})
		}
	}
}

// TestLookaheadScanCount pins the device cost. With nothing resident in
// the cache the rounds that read the device are those the one-pass rule
// gives for the live counts a RAM twin observes, and round 0 reads the
// store in one sequential range: exactly one scan for a connected dense
// graph or a star (round 0's pass, whose stacks fold through the last
// round) — and at no round does the arena hold more than NumNodes
// single-round sketches.
func TestLookaheadScanCount(t *testing.T) {
	const n = 64
	for shape, edges := range lookaheadGraphs(n) {
		t.Run(shape, func(t *testing.T) {
			ram, err := NewEngine(Config{NumNodes: n, Seed: 103})
			if err != nil {
				t.Fatal(err)
			}
			defer ram.Close()
			if err := ram.InsertEdges(edges); err != nil {
				t.Fatal(err)
			}
			_, _, live := stepRounds(t, ram, nil)

			e, err := NewEngine(Config{NumNodes: n, Seed: 103, SketchesOnDisk: true, CacheBytes: 1, DeviceFactory: memFactory(512)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.InsertEdges(edges); err != nil {
				t.Fatal(err)
			}
			evictAll(t, e)
			before := e.Stats()
			reads, passEnd, diskLive := readRounds(t, e, func(_ *querySession, round int) {
				if held := e.queryArena.Nodes() * e.queryArena.Rounds(); held > n {
					t.Fatalf("before round %d the arena holds %d single-round sketches, more than the %d nodes", round, held, n)
				}
			})
			after := e.Stats()
			want := scansFor(n, ram.cfg.Rounds, passEnd, live)
			t.Logf("live roots per round %v, round 0 gathers to round %d: reads per round %v", live, passEnd, reads)
			if !slices.Equal(diskLive, live) {
				t.Fatalf("live counts %v out of core, %v in RAM", diskLive, live)
			}
			if passEnd < 2 || shape == "pairs" && passEnd >= 1+firstRoundDepth {
				t.Fatalf("round 0's pass gathered to round %d; pairs are meant to narrow it below %d, every shape to gather a round",
					passEnd, 1+firstRoundDepth)
			}
			if (shape == "dense" || shape == "star") && want != 1 {
				t.Fatalf("live counts %v give %d scans; a connected %s is meant to be read once", live, want, shape)
			}
			if got := scanned(reads); got != want || reads[0] != 1 {
				t.Fatalf("reads per round %v over live counts %v: %d rounds read, want %d, round 0 in one range", reads, live, got, want)
			}
			if after.MemoryBytes != before.MemoryBytes {
				t.Fatalf("MemoryBytes moved from %d to %d across a query: the arena is counted at its bound from the start",
					before.MemoryBytes, after.MemoryBytes)
			}
			if bound := int64(n) * int64(e.sketchSize-32); e.queryArenaBytes != bound {
				t.Fatalf("arena counted as %d bytes, %d single-round sketches are %d", e.queryArenaBytes, n, bound)
			}
		})
	}
}

// TestLookaheadFreshScanOnUncoveredRoot: the arena's aggregates are folded
// only while they cover every member of every live root. A component that
// was finished — not live, so dropped from the held aggregates — at a
// folded round and is then unioned into a live one leaves that root's held
// parts short, and the round scans afresh instead of sampling an aggregate
// that misses members. The control run revives nothing and folds through
// the same round without a read.
func TestLookaheadFreshScanOnUncoveredRoot(t *testing.T) {
	const n = 64
	for _, revive := range []bool{false, true} {
		e := pathEngine(t, Config{
			NumNodes: n, Seed: 107, SketchesOnDisk: true, CacheBytes: 1, DeviceFactory: memFactory(512),
		}, n-1)
		defer e.Close()
		evictAll(t, e)
		var before []uint64 // device reads before each round
		var extra []stream.Edge
		var left uint32 // last node of the path's head component after round 0
		q, forest, _ := stepRounds(t, e, func(q *querySession, round int) {
			before = append(before, e.Stats().SketchIO.ReadOps)
			if !revive {
				return
			}
			switch round {
			case 1:
				// Retire the head component ahead of round 1, whose fold
				// then drops its stack.
				for left = 0; q.d.Find(left+1) == q.d.Find(0); left++ {
				}
				q.finished[q.d.Find(0)] = true
			case 2:
				// Its neighbour reaches it after all, unless round 1 did.
				if ra, rb := q.d.Find(left), q.d.Find(left+1); ra != rb {
					q.d.Union(ra, rb)
					extra = append(extra, stream.Edge{U: left, V: left + 1})
				}
				q.finished[q.d.Find(0)] = false
			}
		})
		if len(before) < 4 {
			t.Fatalf("revive=%v: the query took %d rounds, too few to fold one", revive, len(before))
		}
		perRound := []uint64{before[1] - before[0], before[2] - before[1], before[3] - before[2]}
		want := []uint64{1, 0, 0} // round 0's pass, then rounds its stacks fold into
		if revive {
			want[2] = 1
		}
		if !slices.Equal(perRound, want) {
			t.Fatalf("revive=%v: %v device reads in rounds 0-2, want %v", revive, perRound, want)
		}
		if count := q.result(0).count; count != 1 || len(forest)+len(extra) != n-1 {
			t.Fatalf("revive=%v: %d components and %d forest edges on a connected path", revive, count, len(forest)+len(extra))
		}
	}
}

// TestComplementOfGiantEqualsMemberSum: a from-scratch round whose largest
// live root holds more members than all the others together lists none of
// its members, in RAM and out of core, and the aggregate it samples — the
// XOR of the other live roots' — is bit for bit the XOR of its members'
// sketches. Star and dense collapse to a lone giant after round 0 (the
// complement of nothing); the lollipop keeps a giant core beside a path
// still being solved. Out of core round 0's stacks fold through those
// rounds; the rescan run drops what the arena holds before every round, so
// each one scans and forms the complement out of the scanned stacks.
func TestComplementOfGiantEqualsMemberSum(t *testing.T) {
	const n = 64
	graphs := lookaheadGraphs(n)
	for u := uint32(0); u+1 < n; u++ {
		if u < 40 {
			for v := u + 1; v < 40; v++ {
				if (u*7+v*5)%4 == 0 || v == u+1 {
					graphs["lollipop"] = append(graphs["lollipop"], stream.Edge{U: u, V: v})
				}
			}
		} else {
			graphs["lollipop"] = append(graphs["lollipop"], stream.Edge{U: u, V: u + 1})
		}
	}
	graphs["lollipop"] = append(graphs["lollipop"], stream.Edge{U: 39, V: 40})
	disk := Config{SketchesOnDisk: true, CacheBytes: 1, DeviceFactory: memFactory(512)}
	stores := map[string]Config{"ram": {}, "disk": disk, "disk-rescan": disk}
	for _, shape := range []string{"star", "dense", "lollipop"} {
		for store, cfg := range stores {
			t.Run(shape+"/"+store, func(t *testing.T) {
				cfg.NumNodes, cfg.Seed = n, 109
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.InsertEdges(graphs[shape]); err != nil {
					t.Fatal(err)
				}
				evictAll(t, e)
				slot := make([]byte, e.slotSize)
				var got cubesketch.Sketch
				giants, beside := 0, 0
				// Before round r+1 the session still holds round r's list
				// and aggregates.
				check := func(q *querySession, round int) {
					if store == "disk-rescan" {
						q.arenaEnd = min(q.arenaEnd, round)
					}
					if round < 2 || q.giant < 0 {
						return
					}
					r, g := round-1, q.roots[q.giant]
					giants++
					if len(q.roots) > 1 {
						beside++
					}
					for _, c := range q.contribs {
						if q.rep[c.node] == g {
							t.Fatalf("round %d lists member %d of its giant %d", r, c.node, g)
						}
					}
					e.queryArena.View(int(q.arenaSlot[q.giant]), r-q.arenaRound, &got)
					want := cubesketch.New(e.vecLen, e.cfg.Columns, e.roundSeeds[r])
					for v, root := range q.rep {
						if root != g {
							continue
						}
						if err := e.sketches.readSlots(uint32(v), 1, slot); err != nil {
							t.Fatal(err)
						}
						if err := want.MergeBinary(slot[r*e.sketchSize:]); err != nil {
							t.Fatal(err)
						}
					}
					a, b := make([]byte, e.sketchSize), make([]byte, e.sketchSize)
					got.MarshalInto(a)
					want.MarshalInto(b)
					if !bytes.Equal(a, b) {
						t.Fatalf("round %d: the giant's complement differs from the XOR of its members' sketches", r)
					}
				}
				q, _, _ := stepRounds(t, e, check)
				check(q, len(q.liveRoots))
				if giants == 0 || shape == "lollipop" && beside == 0 {
					t.Fatalf("%d rounds complemented a giant, %d of them beside other live roots", giants, beside)
				}
				checkAgainstExact(t, e, n, graphs[shape])
			})
		}
	}
}

// TestComplementCandidateMustLeaveGiant: an edge sampled from the giant's
// complement is a union only when exactly one endpoint lies inside the
// giant; one with both endpoints outside (what a component wrongly taken
// for complete would leave in the XOR) counts as a sketch failure. The
// guard applies to the giant alone.
func TestComplementCandidateMustLeaveGiant(t *testing.T) {
	const n = 8
	e, err := NewEngine(Config{NumNodes: n, Seed: 113})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := newQuerySession(n)
	// Nodes 0-4 under root 0, the giant; 5-7 under root 5.
	for v := range q.rep {
		q.rep[v] = 0
		if v >= 5 {
			q.rep[v] = 5
		}
	}
	q.roots, q.giant = []uint32{0, 5}, 0
	cases := []struct {
		root int
		edge stream.Edge
		want bool // a candidate, not a failure
	}{
		{0, stream.Edge{U: 1, V: 6}, true},
		{0, stream.Edge{U: 5, V: 6}, false},
		{0, stream.Edge{U: 1, V: 2}, false},
		{1, stream.Edge{U: 5, V: 6}, true},
	}
	for _, c := range cases {
		acc := cubesketch.New(e.vecLen, e.cfg.Columns, e.roundSeeds[0])
		acc.Update(stream.EdgeIndex(n, c.edge))
		var out sampleOut
		failures := e.Stats().SketchFailures
		e.sampleRoot(q, c.root, acc, &out)
		failed := e.Stats().SketchFailures - failures
		if cand, failure := len(out.cands) == 1, failed > 0; cand != c.want || failure == c.want {
			t.Fatalf("root %d, edge %v: %d candidates and %d failures, want a candidate: %v", q.roots[c.root], c.edge, len(out.cands), failed, c.want)
		}
	}
}
