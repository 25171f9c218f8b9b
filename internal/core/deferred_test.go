package core

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphzeppelin/internal/stream"
)

// This file pins the delta query's deferred leftover batches
// (logLeftovers): a batch the capture logs reaches the sketches through its
// owner after the query's cut, or on the query goroutine only when the plan
// reads its node's live bytes, and either way records its change once.

// deferralEngine builds a path giant over nodes 0..n-3, with nodes n-1 and
// n-2 reserved, and caches its first answer. Its Close is a cleanup, so a
// test's later cleanups (holdApplies) run before it.
func deferralEngine(t *testing.T, cfg Config) (e *Engine, path []stream.Edge) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for u := uint32(0); u+3 < cfg.NumNodes; u++ {
		path = append(path, stream.Edge{U: u, V: u + 1})
	}
	if err := e.InsertEdges(path); err != nil {
		t.Fatal(err)
	}
	checkAgainstExact(t, e, cfg.NumNodes, path)
	return e, path
}

// attachEdges joins node to k path nodes 17 apart from first on: no two of
// them forest neighbours, and spread over the shards in both stores.
func attachEdges(node, first uint32, k int) []stream.Edge {
	var edges []stream.Edge
	for j := range uint32(k) {
		edges = append(edges, stream.Edge{U: first + 17*j, V: node})
	}
	return edges
}

// holdApplies makes every batch apply on e wait in the apply hook until
// release runs, but those of the pass nodes, which go through at once and
// count in passed: a query that applies any other batch on its own
// goroutine blocks there. The workers must be idle when it is called.
func holdApplies(t *testing.T, e *Engine, pass ...uint32) (passed *atomic.Int32, release func()) {
	open, passed := make(chan struct{}), new(atomic.Int32)
	e.testApplyHook = func(node uint32) func() {
		if slices.Contains(pass, node) {
			passed.Add(1)
		} else {
			<-open
		}
		return func() {}
	}
	release = sync.OnceFunc(func() { close(open) })
	t.Cleanup(release)
	return passed, release
}

// queryWithin answers a ConnectedComponents on e, failing unless it
// returns within 10 s, and checks it against the exact partition of
// edges.
func queryWithin(t *testing.T, e *Engine, edges []stream.Edge) {
	t.Helper()
	type answer struct {
		rep   []uint32
		count int
		err   error
	}
	done := make(chan answer, 1)
	go func() {
		rep, count, err := e.ConnectedComponents()
		done <- answer{rep, count, err}
	}()
	var a answer
	select {
	case a = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the query waited for the held workers")
	}
	if a.err != nil {
		t.Fatal(a.err)
	}
	want, count := exactComponents(e.cfg.NumNodes, edges)
	if a.count != count || !samePartition(a.rep, want) {
		t.Fatalf("%d components, want %d, or another partition", a.count, count)
	}
}

// mustDeltas fails unless e answered wantDeltas more delta queries than
// before, and no more fallbacks.
func mustDeltas(t *testing.T, e *Engine, before Stats, wantDeltas uint64) {
	t.Helper()
	after := e.Stats()
	if d, f := after.DeltaQueries-before.DeltaQueries, after.DeltaFallbacks-before.DeltaFallbacks; d != wantDeltas || f != 0 {
		t.Fatalf("%d delta queries and %d fallbacks, want %d and none", d, f, wantDeltas)
	}
}

// TestDeferredLeftoverHeldWorkers holds the workers in the apply hook
// through a trickle's delta query, in both stores. An attach, the intact
// class, reads only logs: the query returns with the exact answer while no
// batch of the trickle has reached the sketches. A detach, the cut class,
// reads the live bytes of its enumerated piece, the reserved node, and
// applies that node's batch on the query goroutine and no other. Once the
// workers go on, the sketches hold every batch once.
func TestDeferredLeftoverHeldWorkers(t *testing.T) {
	const n, k = 160, 8
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 131
			e, path := deferralEngine(t, cfg)
			const reserved = n - 1
			attach := attachEdges(reserved, 3, k)
			for step, edges := range [][]stream.Edge{slices.Concat(path, attach), path} {
				var pass []uint32
				if step == 1 {
					pass = []uint32{reserved}
				}
				passed, release := holdApplies(t, e, pass...)
				if err := e.InsertEdges(attach); err != nil { // a toggle either way
					t.Fatal(err)
				}
				before := e.Stats()
				queryWithin(t, e, edges)
				mustDeltas(t, e, before, 1)
				if step == 1 && passed.Load() != 1 {
					t.Fatalf("the detach applied %d batches of the reserved node on the query goroutine, want its one", passed.Load())
				}
				release()
				if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, edges)) {
					t.Fatalf("step %d: the sketches do not hold the trickle's batches exactly once", step)
				}
			}
			if c := deltaClassCounts(e); c[classIntact] == 0 || c[classCut] == 0 {
				t.Fatalf("classes %v: want the attach intact, the detach cut", c)
			}
		})
	}
}

// TestDeferredLeftoverFitsQueues attaches the reserved node to 12 path
// nodes of a one-shard engine, in both stores, with its worker held: 13
// nodes' batches for one queue of queueSlotsPerShard. The query logs and
// hands over the first queueSlotsPerShard in node order, and applies the
// other five on its own goroutine as before, so no push waits for the
// held worker and the query returns, exactly.
func TestDeferredLeftoverFitsQueues(t *testing.T) {
	const n, k = 256, 12
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed, cfg.Shards = n, 139, 1
			e, path := deferralEngine(t, cfg)
			attach := attachEdges(n-1, 3, k)
			var now []uint32
			for _, eg := range attach[queueSlotsPerShard:] {
				now = append(now, eg.U)
			}
			now = append(now, n-1)
			passed, release := holdApplies(t, e, now...)
			if err := e.InsertEdges(attach); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			queryWithin(t, e, slices.Concat(path, attach))
			mustDeltas(t, e, before, 1)
			if got := passed.Load(); got != int32(len(now)) {
				t.Fatalf("%d batches applied on the query goroutine, want the %d past the queue", got, len(now))
			}
			release()
			if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, slices.Concat(path, attach))) {
				t.Fatal("the sketches do not hold the trickle's batches exactly once")
			}
		})
	}
}

// TestDeferredLeftoverFallback makes a delta query fail to certify, in
// both stores, by running the attach query at one sketch round where it
// needs two: the reserved node joins a partner in round 0 and their
// component certifies in round 1. The from-scratch run it falls back to,
// which fails the same way, must drain the batches the query logged
// before it reads: its round 0 samples an edge at the reserved node,
// whose sketch holds one only once its batch is applied, and the partial
// forest it returns carries that edge. The sketches hold every batch once,
// and at full depth the next query is exact.
func TestDeferredLeftoverFallback(t *testing.T) {
	const n, k = 160, 8
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 141
			e, path := deferralEngine(t, cfg)
			const reserved = n - 1
			attach := attachEdges(reserved, 3, k)
			if err := e.InsertEdges(attach); err != nil {
				t.Fatal(err)
			}
			rounds := e.cfg.Rounds
			e.cfg.Rounds = 1
			before := e.Stats()
			forest, err := e.SpanningForest()
			if !errors.Is(err, ErrQueryFailed) {
				t.Fatalf("the one-round query returned %v, want ErrQueryFailed", err)
			}
			if after := e.Stats(); after.DeltaFallbacks != before.DeltaFallbacks+1 {
				t.Fatal("the delta query did not fall back")
			}
			if !slices.ContainsFunc(forest, func(eg stream.Edge) bool { return eg.V == reserved && slices.Contains(attach, eg) }) {
				t.Fatalf("the from-scratch run's forest of %d edges holds none at the reserved node: it read its sketch without the logged batch", len(forest))
			}
			e.cfg.Rounds = rounds
			edges := slices.Concat(path, attach)
			if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, edges)) {
				t.Fatal("the sketches do not hold the trickle's batches exactly once")
			}
			checkAgainstExact(t, e, n, edges)
		})
	}
}

// TestDeferredLeftoverLandsPreCut lets a delta query's deferred batches
// land, in both stores, and checks that they recorded nothing for the
// result that counts them: a second trickle on other nodes leaves
// Stats().DirtyNodes at its own node count (a deferred batch logged into
// the new baseline would add its node), and a third one that detaches the
// first trickle's node again, queried with the second, is a first change
// of its nodes since that result (a deferred batch stamped after its cut
// would hide the change from the dirty set), so the delta query is exact
// and does not fall back.
func TestDeferredLeftoverLandsPreCut(t *testing.T) {
	const n, k = 256, 4
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 133
			e, path := deferralEngine(t, cfg)
			first, second := attachEdges(n-1, 5, k), attachEdges(n-2, 90, k)

			before := e.Stats()
			if err := e.InsertEdges(first); err != nil {
				t.Fatal(err)
			}
			queryWithin(t, e, slices.Concat(path, first))
			if err := e.InsertEdges(second); err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().DirtyNodes; got != k+1 {
				t.Fatalf("%d dirty nodes after a trickle on %d nodes", got, k+1)
			}
			if err := e.InsertEdges(first); err != nil {
				t.Fatal(err)
			}
			queryWithin(t, e, slices.Concat(path, second))
			mustDeltas(t, e, before, 2)
			if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, slices.Concat(path, second))) {
				t.Fatal("the sketches do not hold the trickles exactly once")
			}
		})
	}
}

// TestDeferredLeftoverRacesSeal runs a delta query while a checkpoint
// stream is held at its first write, in both stores (out of core over a
// one-group cache, as TestCheckpointLowStallAndExactCut does). Its trickle
// — two edges between isolated nodes and a path edge deleted, in sections
// the stream has not read — applies the enumerated piece's batch on the
// query goroutine and leaves the rest to the workers, which apply them
// while the stream waits. Every apply takes the seal's image, so the
// checkpoint holds the twin's bytes at the seal's cut, and the live engine
// holds the trickle.
func TestDeferredLeftoverRacesSeal(t *testing.T) {
	for si, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			const n = 256
			cfg := placed(Config{NumNodes: n, Seed: 137, Shards: 1}, si)
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			unboundCapture(e)
			twin, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			var base []stream.Edge
			for u := uint32(0); u+2 < n; u += 2 {
				base = append(base, stream.Edge{U: u, V: u + 2})
			}
			for _, g := range []*Engine{e, twin} {
				if err := g.InsertEdges(base); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstExact(t, e, n, base)

			gw := newGatedWriter()
			defer gw.open()
			ckptErr := make(chan error, 1)
			go func() { ckptErr <- e.WriteCheckpoint(gw) }()
			<-gw.started

			trickle := []stream.Edge{{U: 161, V: 163}, {U: 193, V: 195}, {U: 200, V: 202}}
			live := append(slices.DeleteFunc(slices.Clone(base), func(eg stream.Edge) bool { return eg == trickle[2] }), trickle[:2]...)
			if err := e.InsertEdges(trickle); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			checkAgainstExact(t, e, n, live)
			mustDeltas(t, e, before, 1)
			if c := deltaClassCounts(e); c[classCut] != 1 {
				t.Fatalf("classes %v: the deleted path edge must cut one component", c)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if got := sealImages(e); got != 6 {
				t.Fatalf("the seal holds %d images; the trickle changed 6 nodes of sections it has not read", got)
			}

			gw.open()
			if err := <-ckptErr; err != nil {
				t.Fatal(err)
			}
			back, err := ReadCheckpoint(bytes.NewReader(gw.buf.Bytes()), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if !bytes.Equal(rawSlots(t, back), rawSlots(t, twin)) {
				t.Fatal("the checkpoint's sketches are not those of its cut")
			}
			if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, live)) {
				t.Fatal("the live engine does not hold the trickle exactly once")
			}
		})
	}
}
