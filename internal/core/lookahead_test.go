package core

import (
	"slices"
	"testing"

	"graphzeppelin/internal/stream"
)

// This file pins the out-of-core from-scratch query's look-ahead scan: the
// same answer as the per-round definition (a RAM engine on the same seed),
// the number of passes over the store the k = min(Rounds-r, max(1, V/L))
// rule implies, the arena's bound, and the fresh scan when held aggregates
// stop covering a live root.

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
		_, ran, err := e.boruvkaRound(q, round, &forest)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
		live = append(live, len(q.roots))
	}
	return q, forest, live
}

// scansFor replays the look-ahead rule over a query's live-root counts: a
// round scans when the previous scan's arena does not reach it.
func scansFor(numNodes, rounds int, live []int) (scans int) {
	end := 0
	for r, l := range live {
		if r >= end {
			scans++
			end = r + min(rounds-r, max(1, numNodes/l))
		}
	}
	return scans
}

// lookaheadGraphs are the shapes the equivalence is checked on: live roots
// that roughly halve per round (path), collapse in one round (star, dense)
// or mostly certify early (many small components).
func lookaheadGraphs(n uint32) map[string][]stream.Edge {
	g := map[string][]stream.Edge{}
	for u := uint32(0); u+1 < n; u++ {
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
// store — nothing cached, a cache of an eighth of it over groups of four,
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
		"uncached": {SketchesOnDisk: true, CacheBytes: -1},
		"eighth":   {SketchesOnDisk: true, CacheBytes: n * slot / 8, NodesPerGroup: 4, Shards: 2},
		"resident": {SketchesOnDisk: true},
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

// TestLookaheadScanCount pins the device cost. With nothing cached and the
// store inside one QueryScanBytes chunk a scan is one read, so the reads of
// a query are its scans: as many as the k rule gives for the live counts a
// RAM twin observes, exactly two for a connected dense graph (round 0, then
// one look-ahead scan that reaches the last round) — and at no round does
// the arena hold more than NumNodes single-round sketches.
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
			want := scansFor(n, ram.cfg.Rounds, live)
			if shape == "dense" && want != 2 {
				t.Fatalf("live counts %v give %d scans; a connected dense graph is meant to give 2", live, want)
			}

			e, err := NewEngine(Config{NumNodes: n, Seed: 103, SketchesOnDisk: true, CacheBytes: -1, DeviceFactory: memFactory(512)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.InsertEdges(edges); err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			_, _, diskLive := stepRounds(t, e, func(_ *querySession, round int) {
				if held := e.queryArena.Nodes() * e.queryArena.Rounds(); held > n {
					t.Fatalf("before round %d the arena holds %d single-round sketches, more than the %d nodes", round, held, n)
				}
			})
			after := e.Stats()
			t.Logf("live roots per round %v: %d scans", live, want)
			if !slices.Equal(diskLive, live) {
				t.Fatalf("live counts %v out of core, %v in RAM", diskLive, live)
			}
			if reads := after.SketchIO.ReadOps - before.SketchIO.ReadOps; reads != uint64(want) {
				t.Fatalf("%d scans over live counts %v, want %d", reads, live, want)
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
// was finished — not live, so not summed — at a look-ahead scan and is then
// unioned into a live one leaves that root's held parts short, and the
// round scans afresh instead of sampling an aggregate that misses members.
// The control run revives nothing and folds through the same round without
// a read.
func TestLookaheadFreshScanOnUncoveredRoot(t *testing.T) {
	const n = 64
	for _, revive := range []bool{false, true} {
		e := pathEngine(t, Config{
			NumNodes: n, Seed: 107, SketchesOnDisk: true, CacheBytes: -1, DeviceFactory: memFactory(512),
		}, n-1)
		defer e.Close()
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
				// Retire the head component ahead of the look-ahead scan,
				// which then leaves it out of the arena.
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
		want := []uint64{1, 1, 0} // round 0, the look-ahead scan, a folded round
		if revive {
			want[2] = 1
		}
		if !slices.Equal(perRound, want) {
			t.Fatalf("revive=%v: %v device reads in rounds 0-2, want %v", revive, perRound, want)
		}
		if _, count := q.buildRep(); count != 1 || len(forest)+len(extra) != n-1 {
			t.Fatalf("revive=%v: %d components and %d forest edges on a connected path", revive, count, len(forest)+len(extra))
		}
	}
}
