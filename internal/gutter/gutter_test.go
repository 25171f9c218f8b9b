package gutter

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// recorder is a Sink that tallies delivered updates per node.
type recorder struct {
	mu      sync.Mutex
	byNode  map[uint32][]uint32
	batches int
}

func newRecorder() *recorder { return &recorder{byNode: map[uint32][]uint32{}} }

func (r *recorder) sink(b Batch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byNode[b.Node] = append(r.byNode[b.Node], b.Others...)
	r.batches++
}

// checkDelivery verifies no loss and no duplication against a model of
// per-node multisets.
func checkDelivery(t *testing.T, r *recorder, want map[uint32][]uint32) {
	t.Helper()
	if len(r.byNode) != len(want) {
		t.Fatalf("delivered to %d nodes, want %d", len(r.byNode), len(want))
	}
	for node, wantVals := range want {
		got := append([]uint32(nil), r.byNode[node]...)
		if len(got) != len(wantVals) {
			t.Fatalf("node %d: delivered %d updates, want %d", node, len(got), len(wantVals))
		}
		gm := map[uint32]int{}
		for _, v := range got {
			gm[v]++
		}
		for _, v := range wantVals {
			gm[v]--
			if gm[v] < 0 {
				t.Fatalf("node %d: value %d under-delivered", node, v)
			}
		}
	}
}

// Compile-time checks: every buffering structure implements Buffer.
var (
	_ Buffer = (*LeafGutters)(nil)
	_ Buffer = (*Tree)(nil)
	_ Buffer = (*Unbuffered)(nil)
)

func TestSPSCFIFO(t *testing.T) {
	q := NewSPSC(4)
	for i := uint32(0); i < 4; i++ {
		if !q.Push(Batch{Node: i}) {
			t.Fatal("push failed")
		}
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := uint32(0); i < 4; i++ {
		b, ok := q.Pop()
		if !ok || b.Node != i {
			t.Fatalf("pop %d: got (%v, %v)", i, b.Node, ok)
		}
	}
}

func TestSPSCBlockingAndClose(t *testing.T) {
	q := NewSPSC(2)
	q.Push(Batch{Node: 1})
	q.Push(Batch{Node: 2})
	done := make(chan bool)
	go func() {
		done <- q.Push(Batch{Node: 3}) // blocks until a pop frees a slot
	}()
	if b, ok := q.Pop(); !ok || b.Node != 1 {
		t.Fatal("pop 1 failed")
	}
	if !<-done {
		t.Fatal("blocked push should have succeeded after pop")
	}
	q.Close()
	if q.Push(Batch{Node: 4}) {
		t.Fatal("push after close succeeded")
	}
	// Drain remaining, then closed-empty.
	if b, ok := q.Pop(); !ok || b.Node != 2 {
		t.Fatal("drain after close failed")
	}
	if b, ok := q.Pop(); !ok || b.Node != 3 {
		t.Fatal("drain after close failed")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on closed empty queue returned ok")
	}
}

// TestSPSCSingleProducerSingleConsumer hammers the queue from one producer
// and one consumer and checks exactly-once in-order delivery.
func TestSPSCSingleProducerSingleConsumer(t *testing.T) {
	q := NewSPSC(8)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint32(0)
		for {
			b, ok := q.Pop()
			if !ok {
				if next != total {
					t.Errorf("consumer saw %d batches, want %d", next, total)
				}
				return
			}
			if b.Node != next {
				t.Errorf("out of order: got %d, want %d", b.Node, next)
				return
			}
			next++
		}
	}()
	for i := uint32(0); i < total; i++ {
		if !q.Push(Batch{Node: i}) {
			t.Fatal("push failed")
		}
	}
	q.Close()
	wg.Wait()
}

func TestUnbufferedEmitsImmediately(t *testing.T) {
	r := newRecorder()
	u := NewUnbuffered(r.sink)
	if err := u.InsertEdges([]stream.Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if r.batches != 2 {
		t.Fatalf("batches = %d, want 2", r.batches)
	}
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	checkDelivery(t, r, map[uint32][]uint32{1: {2}, 2: {1}})
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleReusesBuffers checks the freelist actually hands buffers back
// and never corrupts delivered data.
func TestRecycleReusesBuffers(t *testing.T) {
	var live [][]uint32
	g := NewLeafGutters(4, 2, 1, 1, func(b Batch) { live = append(live, b.Others) })
	g.Insert(0, 1)
	g.Insert(0, 2) // fills gutter 0
	if len(live) != 1 || len(live[0]) != 2 {
		t.Fatalf("unexpected emissions %v", live)
	}
	g.Recycle(live[0])
	g.Insert(0, 3)
	g.Insert(0, 1) // fills gutter 0 again, should reuse the buffer
	if len(live) != 2 {
		t.Fatalf("expected second batch, got %v", live)
	}
	if &live[0][0] != &live[1][0] {
		t.Fatal("recycled buffer was not reused")
	}
}

// TestForcedFlushRecyclesEveryBuffer pins the query-time cycle of the
// interleaved workload: a little lands in every gutter, Flush forces all
// of them out at once, the consumer recycles them, and the next round's
// first insert per node must find a buffer waiting instead of allocating
// (and zeroing) a full-capacity one. More nodes than freelistDefault, so a
// fixed-size freelist fails it.
func TestForcedFlushRecyclesEveryBuffer(t *testing.T) {
	const nodes = 4 * freelistDefault
	out := make([][]uint32, 0, nodes)
	g := NewLeafGutters(nodes, 1000, 2, 1, func(b Batch) { out = append(out, b.Others) })
	cycle := func() {
		for i := uint32(0); i < 3; i++ {
			for node := uint32(0); node < nodes; node++ {
				g.Insert(node, i)
			}
		}
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(out) != nodes {
			t.Fatalf("Flush emitted %d batches, want %d", len(out), nodes)
		}
		for _, buf := range out {
			g.Recycle(buf)
		}
		out = out[:0]
	}
	cycle() // the first round allocates every node's buffer
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("steady-state fill/Flush/Recycle cycle allocates %.0f times, want 0", allocs)
	}
}

func TestLeafGuttersFlushOnFull(t *testing.T) {
	r := newRecorder()
	g := NewLeafGutters(4, 3, 2, 1, r.sink)
	g.Insert(1, 10)
	g.Insert(1, 11)
	if r.batches != 0 {
		t.Fatal("premature flush")
	}
	g.Insert(1, 12) // fills the gutter
	if r.batches != 1 {
		t.Fatalf("batches = %d, want 1", r.batches)
	}
	g.Insert(1, 13)
	g.Flush()
	checkDelivery(t, r, map[uint32][]uint32{1: {10, 11, 12, 13}})
}

// TestLeafGuttersGroupedFlush pins the group-aware flush contract: a
// group flushes as one burst when its combined fill reaches nodesPerGroup
// × capacity, emitting every pending gutter of the group back to back —
// the shape the out-of-core tier turns into a single group-slot fetch.
func TestLeafGuttersGroupedFlush(t *testing.T) {
	r := newRecorder()
	g := NewLeafGutters(8, 2, 4, 4, r.sink) // groups [0,4) and [4,8), cap 8 updates each
	if g.NodesPerGroup() != 4 {
		t.Fatalf("NodesPerGroup = %d, want 4", g.NodesPerGroup())
	}
	// Stripes clamp to the group count.
	if g.Stripes() != 2 {
		t.Fatalf("stripes = %d, want 2 (one per group)", g.Stripes())
	}
	// 7 updates across group 0 (nodes 0..3): below the group trigger even
	// though node 0 holds more than its nominal per-node capacity.
	for i := 0; i < 4; i++ {
		g.Insert(0, uint32(10+i))
	}
	g.Insert(1, 20)
	g.Insert(2, 30)
	g.Insert(3, 40)
	if r.batches != 0 {
		t.Fatalf("group flushed early after 7/8 updates (%d batches)", r.batches)
	}
	// The 8th update trips the group: all four gutters flush as one burst.
	g.Insert(1, 21)
	if r.batches != 4 {
		t.Fatalf("group flush emitted %d batches, want 4", r.batches)
	}
	// Group 1 is untouched by the burst.
	g.Insert(5, 50)
	g.Flush()
	checkDelivery(t, r, map[uint32][]uint32{
		0: {10, 11, 12, 13}, 1: {20, 21}, 2: {30}, 3: {40}, 5: {50},
	})
}

func TestLeafGuttersNoLossNoDuplication(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	r := newRecorder()
	const n = 64
	g := NewLeafGutters(n, 7, 4, 1, r.sink)
	want := map[uint32][]uint32{}
	for i := 0; i < 5000; i++ {
		u := uint32(rng.Uint64N(n))
		v := uint32(rng.Uint64N(n))
		if u == v {
			continue
		}
		g.InsertEdges([]stream.Edge{{U: u, V: v}})
		want[u] = append(want[u], v)
		want[v] = append(want[v], u)
	}
	g.Flush()
	checkDelivery(t, r, want)
	if g.Buffered() == 0 || g.Flushes() == 0 {
		t.Fatal("counters not advancing")
	}
}

// TestLeafGuttersBatchMatchesSingle checks InsertEdges delivers exactly
// what the equivalent sequence of single-edge calls would.
func TestLeafGuttersBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	r := newRecorder()
	const n = 32
	g := NewLeafGutters(n, 5, 3, 1, r.sink)
	want := map[uint32][]uint32{}
	var batch []stream.Edge
	for i := 0; i < 3000; i++ {
		u := uint32(rng.Uint64N(n))
		v := uint32(rng.Uint64N(n))
		if u == v {
			continue
		}
		batch = append(batch, stream.Edge{U: u, V: v})
		want[u] = append(want[u], v)
		want[v] = append(want[v], u)
		if len(batch) == 64 {
			if err := g.InsertEdges(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := g.InsertEdges(batch); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	checkDelivery(t, r, want)
}

// TestBuffersConcurrentProducers hammers every Buffer implementation from
// multiple goroutines and checks no update is lost or duplicated. Run
// with -race this is the core of the multi-producer safety contract.
func TestBuffersConcurrentProducers(t *testing.T) {
	const (
		n         = 64
		producers = 4
		perProd   = 4000
	)
	builders := []struct {
		name  string
		build func(sink Sink) Buffer
	}{
		{"leaf", func(sink Sink) Buffer { return NewLeafGutters(n, 7, 4, 1, sink) }},
		{"tree", func(sink Sink) Buffer {
			tree, err := NewTree(n, TreeConfig{Fanout: 4, BufferRecords: 128, LeafRecords: 32}, iomodel.NewMem(512), sink)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}},
		{"unbuffered", func(sink Sink) Buffer { return NewUnbuffered(sink) }},
	}
	for _, bld := range builders {
		t.Run(bld.name, func(t *testing.T) {
			r := newRecorder()
			buf := bld.build(r.sink)
			var mu sync.Mutex
			want := map[uint32][]uint32{}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(p), 11))
					local := map[uint32][]uint32{}
					// Every third update goes in alone, the rest in
					// batches of up to 7, so single-edge and multi-edge
					// calls interleave across producers.
					var pending []stream.Edge
					for i := 0; i < perProd; i++ {
						u := uint32(rng.Uint64N(n))
						v := uint32(rng.Uint64N(n))
						if u == v {
							continue
						}
						if i%3 == 0 {
							if err := buf.InsertEdges([]stream.Edge{{U: u, V: v}}); err != nil {
								t.Error(err)
								return
							}
						} else if pending = append(pending, stream.Edge{U: u, V: v}); len(pending) == 7 {
							if err := buf.InsertEdges(pending); err != nil {
								t.Error(err)
								return
							}
							pending = pending[:0]
						}
						local[u] = append(local[u], v)
						local[v] = append(local[v], u)
					}
					if err := buf.InsertEdges(pending); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for node, vals := range local {
						want[node] = append(want[node], vals...)
					}
					mu.Unlock()
				}(p)
			}
			wg.Wait()
			if err := buf.Flush(); err != nil {
				t.Fatal(err)
			}
			checkDelivery(t, r, want)
			if err := buf.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTreeNoLossNoDuplication(t *testing.T) {
	configs := []TreeConfig{
		{}, // defaults
		{Fanout: 2, BufferRecords: 16, LeafRecords: 8},
		{Fanout: 4, BufferRecords: 64, LeafRecords: 32, NodesPerLeaf: 4},
		{Fanout: 16, BufferRecords: 1024, LeafRecords: 64},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(ci), 3))
			r := newRecorder()
			dev := iomodel.NewMem(512)
			const n = 100
			tree, err := NewTree(n, cfg, dev, r.sink)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint32][]uint32{}
			for i := 0; i < 20000; i++ {
				u := uint32(rng.Uint64N(n))
				v := uint32(rng.Uint64N(n))
				if u == v {
					continue
				}
				if err := tree.InsertEdges([]stream.Edge{{U: u, V: v}}); err != nil {
					t.Fatal(err)
				}
				want[u] = append(want[u], v)
				want[v] = append(want[v], u)
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			checkDelivery(t, r, want)
			if tree.Stats().WriteOps == 0 {
				t.Fatal("tree never touched the device")
			}
		})
	}
}

func TestTreeSkewedDestination(t *testing.T) {
	// All updates bound for one node: leaves must flush repeatedly
	// without losing anything.
	r := newRecorder()
	tree, err := NewTree(16, TreeConfig{Fanout: 4, BufferRecords: 32, LeafRecords: 8}, iomodel.NewMem(512), r.sink)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32][]uint32{}
	for i := 0; i < 3000; i++ {
		v := uint32(i % 15)
		if v == 7 {
			v = 8
		}
		if err := tree.Insert(7, v); err != nil {
			t.Fatal(err)
		}
		want[7] = append(want[7], v)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	checkDelivery(t, r, want)
}

func TestTreeFlushEmpty(t *testing.T) {
	r := newRecorder()
	tree, err := NewTree(8, TreeConfig{}, iomodel.NewMem(512), r.sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.batches != 0 {
		t.Fatal("empty tree emitted batches")
	}
}

func TestTreeSingleNodeUniverseRejected(t *testing.T) {
	if _, err := NewTree(0, TreeConfig{}, iomodel.NewMem(512), func(Batch) {}); err == nil {
		t.Fatal("zero-node tree accepted")
	}
}

func TestTreeAmortizesIO(t *testing.T) {
	// The point of the tree (Lemma 4): block I/Os should be far fewer
	// than updates. With 512-byte blocks and 8-byte records, one block
	// holds 64 records; sort(N) I/Os ≪ N.
	r := newRecorder()
	dev := iomodel.NewMem(512)
	tree, err := NewTree(256, TreeConfig{Fanout: 8, BufferRecords: 2048, LeafRecords: 256}, dev, r.sink)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	const updates = 100000
	for i := 0; i < updates; i++ {
		u := uint32(rng.Uint64N(256))
		v := uint32(rng.Uint64N(256))
		if u == v {
			continue
		}
		if err := tree.Insert(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.TotalBlocks() >= updates {
		t.Fatalf("tree used %d block I/Os for %d updates; no amortization", st.TotalBlocks(), updates)
	}
}

// TestFlushToGivenSink pins the flush a query's drain takes its leftover
// batches through: given a sink, Flush delivers every update still
// buffered to it and none to the sink the buffer was built with, which
// keeps getting only what fills emit; LeafGutters hands them over in
// ascending node order, one batch per node.
func TestFlushToGivenSink(t *testing.T) {
	const n = 64
	builds := map[string]func(Sink) (Buffer, error){
		"leaf": func(s Sink) (Buffer, error) { return NewLeafGutters(n, 8, 3, 4, s), nil },
		"tree": func(s Sink) (Buffer, error) {
			return NewTree(n, TreeConfig{Fanout: 4, BufferRecords: 64, LeafRecords: 16, NodesPerLeaf: 4}, iomodel.NewMem(512), s)
		},
		"unbuffered": func(s Sink) (Buffer, error) { return NewUnbuffered(s), nil },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			built, given := newRecorder(), newRecorder()
			buf, err := build(built.sink)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(21, 22))
			want := map[uint32][]uint32{}
			for i := 0; i < 1500; i++ {
				u, v := uint32(rng.Uint64N(n)), uint32(rng.Uint64N(n))
				if u == v {
					continue
				}
				if err := buf.InsertEdges([]stream.Edge{{U: u, V: v}}); err != nil {
					t.Fatal(err)
				}
				want[u] = append(want[u], v)
				want[v] = append(want[v], u)
			}
			emitted := built.batches
			var order []uint32
			if err := buf.Flush(func(b Batch) {
				order = append(order, b.Node)
				given.sink(b)
			}); err != nil {
				t.Fatal(err)
			}
			if built.batches != emitted {
				t.Fatalf("the flush emitted %d batches to the built-in sink", built.batches-emitted)
			}
			if name == "leaf" && (!slices.IsSorted(order) || len(slices.Compact(slices.Clone(order))) != len(order)) {
				t.Fatalf("the leaf gutters flushed nodes %v; want ascending, one batch each", order)
			}
			if name == "unbuffered" && given.batches != 0 {
				t.Fatalf("an unbuffered flush emitted %d batches", given.batches)
			}
			// Together the two sinks got every update exactly once.
			for node, others := range given.byNode {
				built.byNode[node] = append(built.byNode[node], others...)
			}
			checkDelivery(t, built, want)
		})
	}
}
