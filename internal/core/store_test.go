package core

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphzeppelin/internal/stream"
)

// deviceOf returns an out-of-core engine's store.
func deviceOf(e *Engine) *deviceStore { return e.sketches.(*deviceStore) }

// storePair builds a RAM engine and an out-of-core engine of one geometry;
// the device engine's cache holds one group per shard, so nearly every
// apply faults a group in and writes another back.
func storePair(t *testing.T, cfg Config) (ram, disk *Engine) {
	t.Helper()
	build := func(cfg Config) *Engine {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	ram = build(cfg)
	cfg.SketchesOnDisk, cfg.CacheBytes = true, 1
	return ram, build(cfg)
}

// withIdleWorkers runs f under e's quiesce write lock after a drain, so
// f may call the store directly.
func withIdleWorkers(t *testing.T, e *Engine, f func()) {
	t.Helper()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if err := e.drainLocked(); err != nil {
		t.Fatal(err)
	}
	f()
}

// TestStoreContract drives a ramStore engine and a deviceStore engine
// through one sequence of store operations — apply with capture, slot
// reads and writes, a merge, a full seal with an apply in flight, a delta
// seal, an invalidate — and requires identical slot bytes after every
// step, and every captured pre-image to be the slot as read just before
// its apply.
func TestStoreContract(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 97, Shards: 2, Buffering: BufferNone, NodesPerGroup: 4}
	ram, disk := storePair(t, cfg)
	both := []*Engine{ram, disk}
	same := func(step string) []byte {
		t.Helper()
		a, b := rawSlots(t, ram), rawSlots(t, disk)
		if !bytes.Equal(a, b) {
			t.Fatalf("after %s the stores' slots differ", step)
		}
		return a
	}
	ingested := randomEdges(n, 150, 97, 1)

	// Apply with capture, straight through the store as a worker would.
	for _, e := range both {
		withIdleWorkers(t, e, func() {
			before, img := make([]byte, e.slotSize), make([]byte, e.slotSize)
			for _, eg := range ingested {
				for _, end := range []stream.Edge{eg, {U: eg.V, V: eg.U}} {
					if err := e.sketches.flush(); err != nil {
						t.Fatal(err)
					}
					if err := e.sketches.readSlots(end.U, 1, before); err != nil {
						t.Fatal(err)
					}
					idx := stream.EdgeIndex(n, end)
					if err := e.sketches.apply(end.U, []uint64{idx}, img); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(img, before) {
						t.Fatalf("%T: the image captured by node %d's apply is not its slot before it", e.sketches, end.U)
					}
				}
			}
		})
	}
	if !bytes.Equal(same("apply"), referenceSlots(t, cfg, ingested)) {
		t.Fatal("the applies do not sketch the ingested edges")
	}

	// A run read back in one call, written over another run, and a write
	// holding one bad header refused before anything lands.
	for _, e := range both {
		withIdleWorkers(t, e, func() {
			run := make([]byte, 6*e.slotSize)
			if err := e.sketches.readSlots(3, 6, run); err != nil {
				t.Fatal(err)
			}
			if err := e.sketches.writeSlots(40, 6, run); err != nil {
				t.Fatal(err)
			}
			bad := bytes.Clone(run)
			bad[5*e.slotSize+e.sketchSize+8] ^= 1 // the last slot's round-1 seed
			if err := e.sketches.writeSlots(10, 6, bad); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("%T: writing a slot with a bad header: %v, want ErrCorruptCheckpoint", e.sketches, err)
			}
		})
	}
	slots := same("writeSlots")
	if !bytes.Equal(slots[40*ram.slotSize:46*ram.slotSize], slots[3*ram.slotSize:9*ram.slotSize]) {
		t.Fatal("writeSlots did not replace the run")
	}

	// A merge of another engine's checkpoint.
	src, err := NewEngine(Config{NumNodes: n, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.InsertEdges(randomEdges(n, 80, 97, 2)); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, e := range both {
		if err := e.MergeCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	same("merge")

	// A full seal, streamed while a worker holds an apply of target open:
	// the stream is the cut, and the apply lands after it. The batches take
	// their seal images before the stream starts, so the one-group cache's
	// zero budget is lifted to RAM's.
	const target = 60
	extra := stream.Edge{U: 1, V: target}
	for _, e := range both {
		unboundCapture(e)
		cut := rawSlots(t, e)
		var armed atomic.Bool
		entered, proceed := make(chan struct{}), make(chan struct{})
		e.testApplyHook = func(node uint32) func() {
			if node == target && armed.CompareAndSwap(true, false) {
				close(entered)
				<-proceed
			}
			return func() {}
		}
		cs, err := e.SealCheckpointSince(0)
		if err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		applied := make(chan error, 1)
		go func() { applied <- e.InsertEdges([]stream.Edge{extra, {U: 2, V: 33}, {U: 17, V: 50}}) }()
		<-entered
		var buf bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cs.StreamTo(&buf); err != nil {
				t.Error(err)
			}
		}()
		close(proceed)
		wg.Wait()
		cs.Close()
		if err := <-applied; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointSlots(t, buf.Bytes()), cut) {
			t.Fatalf("%T: the full checkpoint is not the seal-time cut", e.sketches)
		}
	}
	same("full seal")

	// A delta seal against that full one carries the changed slots as the
	// store holds them.
	for _, e := range both {
		id := e.Stats().LastCheckpointID
		mustUpdate(t, e, 5, 6)
		cs, err := e.SealCheckpointSince(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = cs.StreamTo(&buf)
		isDelta := cs.IsDelta()
		cs.Close()
		if err != nil || !isDelta {
			t.Fatalf("%T: delta seal: delta=%v err=%v", e.sketches, isDelta, err)
		}
		live := rawSlots(t, e)
		var want []byte
		for _, run := range layoutOf(t, buf.Bytes()).sections {
			want = append(want, live[int(run.start)*e.slotSize:(int(run.start)+run.count)*e.slotSize]...)
		}
		if !bytes.Equal(checkpointSlots(t, buf.Bytes()), want) {
			t.Fatalf("%T: the delta's slots are not the live ones", e.sketches)
		}
	}
	same("delta seal")

	// Invalidate drops nothing the store holds.
	for _, e := range both {
		withIdleWorkers(t, e, func() {
			if err := e.sketches.invalidate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	same("invalidate")
}

// TestMergeCheckpointFailsAfterFirstSection pins what MergeCheckpoint
// promises when the stream fails part way, in both placements: a bad CRC
// on the last section returns ErrCorruptCheckpoint with the sections
// before it merged, the last one untouched, and Stats().Updates unmoved.
func TestMergeCheckpointFailsAfterFirstSection(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 101, Shards: 2, Buffering: BufferNone, NodesPerGroup: 4}
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.InsertEdges(randomEdges(n, 120, 101, 1)); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := src.WriteCheckpoint(&good); err != nil {
		t.Fatal(err)
	}
	sections := layoutOf(t, good.Bytes()).sections
	if len(sections) < 2 {
		t.Fatalf("checkpoint has %d sections, want several", len(sections))
	}
	last := sections[len(sections)-1]
	bad := bytes.Clone(good.Bytes())
	bad[last.off+16] ^= 1 // the section header's CRC

	ram, disk := storePair(t, cfg)
	for _, e := range []*Engine{ram, disk} {
		if err := e.InsertEdges(randomEdges(n, 40, 101, 2)); err != nil {
			t.Fatal(err)
		}
		before := rawSlots(t, e)
		updates := e.Stats().Updates
		if err := e.MergeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%T: merging a stream with a bad last CRC: %v, want ErrCorruptCheckpoint", e.sketches, err)
		}
		if got := e.Stats().Updates; got != updates {
			t.Fatalf("%T: a failed merge moved Updates from %d to %d", e.sketches, updates, got)
		}
		failed := rawSlots(t, e)
		if err := e.MergeCheckpoint(bytes.NewReader(good.Bytes())); err != nil {
			t.Fatal(err)
		}
		// Merging the good stream on top toggles the merged sections back:
		// they now hold what they held before, and the last section, never
		// merged by the failed call, holds the full merge.
		after := rawSlots(t, e)
		split := int(last.start) * e.slotSize
		if !bytes.Equal(after[:split], before[:split]) {
			t.Fatalf("%T: the sections before the bad one were not merged by the failed call", e.sketches)
		}
		if !bytes.Equal(failed[split:], before[split:]) {
			t.Fatalf("%T: the failed merge changed the section with the bad CRC", e.sketches)
		}
	}
}

// TestImagelessNodesRunFromScratch pins the delta query's fallback for
// dirty nodes past the capture's budget, in both placements: with a
// budget of 0 no log or image fits, the baseline overflows at the first
// change after the cached result, and the next query runs from scratch,
// exactly.
func TestImagelessNodesRunFromScratch(t *testing.T) {
	const n = 32
	ram, disk := storePair(t, Config{NumNodes: n, Seed: 103, Shards: 2, Buffering: BufferNone, NodesPerGroup: 4})
	for _, e := range []*Engine{ram, disk} {
		e.capture.budget = 0 // no entry fits
		var edges []stream.Edge
		for u := uint32(0); u+1 < n; u++ {
			mustUpdate(t, e, u, u+1)
			edges = append(edges, stream.Edge{U: u, V: u + 1})
		}
		checkAgainstExact(t, e, n, edges)
		mustUpdate(t, e, n/2-1, n/2) // delete the middle edge
		checkAgainstExact(t, e, n, slices.Delete(edges, n/2-1, n/2))
		if st := e.Stats(); st.DeltaFallbacks != 1 || st.DeltaQueries != 0 {
			t.Fatalf("%T: %d delta queries and %d fallbacks over imageless nodes, want none and one", e.sketches, st.DeltaQueries, st.DeltaFallbacks)
		}
	}
}
