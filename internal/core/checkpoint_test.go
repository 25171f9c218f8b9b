package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphzeppelin/internal/stream"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			src, err := NewEngine(Config{NumNodes: 48, Seed: 13, SketchesOnDisk: disk})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			var edges []stream.Edge
			rng := rand.New(rand.NewPCG(1, 2))
			seen := map[stream.Edge]bool{}
			for i := 0; i < 300; i++ {
				e := stream.Edge{U: uint32(rng.Uint64N(48)), V: uint32(rng.Uint64N(48))}.Normalize()
				if e.U == e.V || seen[e] {
					continue
				}
				seen[e] = true
				edges = append(edges, e)
				mustUpdate(t, src, e.U, e.V)
			}
			var buf bytes.Buffer
			if err := src.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}

			// Restore into the opposite placement to prove the format is
			// placement-independent.
			back, err := ReadCheckpoint(&buf, Config{SketchesOnDisk: !disk, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			checkAgainstExact(t, back, 48, edges)
			if back.Stats().Updates != src.Stats().Updates {
				t.Fatalf("update counter not restored: %d vs %d",
					back.Stats().Updates, src.Stats().Updates)
			}

			// The restored engine keeps ingesting correctly.
			extra := stream.Edge{U: 0, V: 47}
			if !seen[extra] {
				mustUpdate(t, back, 0, 47)
				edges = append(edges, extra)
			}
			checkAgainstExact(t, back, 48, edges)
		})
	}
}

// TestMergeCheckpointShards splits one stream round-robin across k
// engines (the distributed-ingestion pattern of the paper's conclusion),
// merges every shard's checkpoint into a fresh engine, and verifies the
// merged engine answers for the union.
func TestMergeCheckpointShards(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 17}
	edges := randomEdges(n, 250, 3, 4)
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			merged, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer merged.Close()
			for i := 0; i < k; i++ {
				shard, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for j := i; j < len(edges); j += k {
					mustUpdate(t, shard, edges[j].U, edges[j].V)
				}
				var buf bytes.Buffer
				err = shard.WriteCheckpoint(&buf)
				shard.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := merged.MergeCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstExact(t, merged, n, edges)
		})
	}
}

func TestMergeCheckpointRejectsIncompatible(t *testing.T) {
	a, err := NewEngine(Config{NumNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEngine(Config{NumNodes: 16, Seed: 2}) // different seed
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeCheckpoint(&buf); !errors.Is(err, ErrIncompatibleCheckpoint) {
		t.Fatalf("err = %v, want ErrIncompatibleCheckpoint", err)
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("BAD!")), Config{}); err == nil {
		t.Fatal("bad magic accepted")
	}
	e, err := NewEngine(Config{NumNodes: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadCheckpoint(bytes.NewReader(trunc), Config{}); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// randomEdges returns count distinct random non-loop edges over n nodes.
func randomEdges(n uint32, count int, s1, s2 uint64) []stream.Edge {
	rng := rand.New(rand.NewPCG(s1, s2))
	seen := map[stream.Edge]bool{}
	var edges []stream.Edge
	for len(edges) < count {
		e := stream.Edge{U: uint32(rng.Uint64N(uint64(n))), V: uint32(rng.Uint64N(uint64(n)))}.Normalize()
		if e.U == e.V || seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges
}

// TestOpenCheckpointParallelRestore round-trips through a file and the
// footer-driven parallel decode path, across placements and shard counts
// (the section partition is independent of either side's sharding).
func TestOpenCheckpointParallelRestore(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			src, err := NewEngine(Config{NumNodes: 96, Seed: 23, Shards: 3, SketchesOnDisk: disk})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			edges := randomEdges(96, 300, 5, 6)
			for _, eg := range edges {
				mustUpdate(t, src, eg.U, eg.V)
			}
			path := filepath.Join(t.TempDir(), "ckpt.gze")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.WriteCheckpoint(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			back, err := OpenCheckpoint(path, Config{SketchesOnDisk: !disk, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			checkAgainstExact(t, back, 96, edges)
			if back.Stats().Updates != src.Stats().Updates {
				t.Fatalf("update counter not restored: %d vs %d",
					back.Stats().Updates, src.Stats().Updates)
			}
		})
	}
}

// gatedWriter blocks every underlying write until released, so a test can
// hold a checkpoint stream open mid-write and prove ingestion is live.
type gatedWriter struct {
	buf           bytes.Buffer
	gate          chan struct{}
	started       chan struct{}
	once, release sync.Once
}

// open releases the writes, once however often it is called: a test that
// defers it never leaves a failed run's stream, and with it Close, blocked.
func (g *gatedWriter) open() { g.release.Do(func() { close(g.gate) }) }

func newGatedWriter() *gatedWriter {
	return &gatedWriter{gate: make(chan struct{}), started: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.buf.Write(p)
}

// TestCheckpointLowStallAndExactCut proves the two tentpole properties at
// once, in both placements: (1) low stall — while the checkpoint stream is
// blocked on a gated writer, an ingest call completes, so the quiesce lock
// is not held for the stream write; (2) exact cut — the checkpoint holds
// the sketch bytes of the pre-checkpoint cut, byte for byte, though updates
// accepted mid-stream were applied before the stream read their sections
// (both placements keep the cut's images), which also pins that they are
// not lost from the live engine. The store spans more sections than the
// stream reads ahead of its blocked writer, and the mid-stream updates
// touch only the sections it has not read. Out of core the cache holds one
// group (and the capture RAM's budget, so that no change waits for the
// held stream), so their changes reach the device before the stream reads
// them:
// by an eviction's write-back, and by a cold query that applies buffered
// updates in its pass over the store and writes the changed slots back.
func TestCheckpointLowStallAndExactCut(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			const n = 256
			cfg := Config{NumNodes: n, Seed: 29, Shards: 1}
			if disk {
				cfg.SketchesOnDisk, cfg.CacheBytes = true, 1
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			unboundCapture(e)
			cut, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cut.Close()
			// Base graph: a path over the even nodes; odd nodes isolated.
			var base []stream.Edge
			for u := uint32(0); u+2 < n; u += 2 {
				base = append(base, stream.Edge{U: u, V: u + 2})
				mustUpdate(t, e, u, u+2)
				mustUpdate(t, cut, u, u+2)
			}

			gw := newGatedWriter()
			defer gw.open()
			ckptErr := make(chan error, 1)
			go func() { ckptErr <- e.WriteCheckpoint(gw) }()
			<-gw.started // the stream write began: the seal is over

			// Ingestion must proceed while the stream is blocked.
			inserted := make(chan error, 1)
			go func() { inserted <- e.InsertEdge(129, 131) }()
			select {
			case err := <-inserted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ingest blocked for the duration of the checkpoint stream write")
			}
			// Force the post-seal update all the way into the sketches so
			// the disk-mode copy-on-write path really races the scan.
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			live := append(append([]stream.Edge(nil), base...), stream.Edge{U: 129, V: 131})
			// A cold query with updates still buffered: out of core its pass
			// applies them to groups it reads off the device and writes the
			// changed slots back, while the stream waits.
			for _, eg := range []stream.Edge{{U: 161, V: 163}, {U: 193, V: 195}} {
				mustUpdate(t, e, eg.U, eg.V)
				live = append(live, eg)
			}
			checkAgainstExact(t, e, n, live)
			if got := sealImages(e); got != 6 {
				t.Fatalf("the seal holds %d images; the mid-stream updates changed 6 nodes of sections it has not read", got)
			}

			gw.open()
			if err := <-ckptErr; err != nil {
				t.Fatal(err)
			}

			// The checkpoint holds exactly the pre-checkpoint cut: none of
			// the edges applied mid-stream.
			back, err := ReadCheckpoint(bytes.NewReader(gw.buf.Bytes()), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if !bytes.Equal(rawSlots(t, back), rawSlots(t, cut)) {
				t.Fatal("the checkpoint's sketches are not those of its cut")
			}
			checkAgainstExact(t, back, n, base)
			if st := e.Stats(); st.CheckpointStallNanos == 0 {
				t.Fatal("CheckpointStallNanos not recorded")
			}
			// And the live engine still has them.
			checkAgainstExact(t, e, n, live)
		})
	}
}

// TestDiskCheckpointConcurrentProducers stresses the copy-on-write scan
// under -race: producers keep flipping redundant edges inside one big
// component while checkpoints stream, over a cache of one group per shard
// (and the capture RAM's budget), so eviction write-backs of changed
// groups race the stream. Each stream is held at its first write until
// producers' changes have taken seal images in more groups than the cache
// holds, so some changed node is on the device when the scan reads it.
// Each checkpoint must hold the sketch bytes of its cut exactly: the
// updates the WAL had logged when it sealed, which its meta supplier
// records. The delta input seals each checkpoint as a delta against a full
// base sealed, with the producers held off, just before it; its images
// are of planned nodes only, and the base plus the delta must hold the
// cut's bytes exactly.
func TestDiskCheckpointConcurrentProducers(t *testing.T) {
	t.Run("full", func(t *testing.T) { diskConcurrentProducers(t, false) })
	t.Run("delta", func(t *testing.T) { diskConcurrentProducers(t, true) })
}

func diskConcurrentProducers(t *testing.T, delta bool) {
	const n = 256
	cfg := Config{NumNodes: n, Seed: 31, Shards: 2, SketchesOnDisk: true, CacheBytes: 1, BufferFactor: 0.01, WAL: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	unboundCapture(e)
	var base []stream.Edge
	for u := uint32(0); u+1 < n; u++ {
		base = append(base, stream.Edge{U: u, V: u + 1})
		mustUpdate(t, e, u, u+1)
	}
	// Each producer update carries its edge in its sequence number; the
	// logged hook runs under the quiesce read lock and the meta supplier
	// under the seal's write lock, so what the supplier sees logged is the
	// checkpoint's cut.
	var mu sync.Mutex
	var logged, sealed []uint64
	e.SetLoggedHook(func(seq uint64) {
		if seq != 0 {
			mu.Lock()
			logged = append(logged, seq)
			mu.Unlock()
		}
	})
	e.SetCheckpointMeta(func() []byte {
		mu.Lock()
		sealed = slices.Clone(logged)
		mu.Unlock()
		return nil
	})

	// toggle flips chord u–v once, its edge in the update's sequence number.
	toggle := func(u, v uint32) error {
		return e.UpdateBatchSeq([]stream.Update{{Edge: stream.Edge{U: u, V: v}}}, 1<<63|uint64(u)<<32|uint64(v))
	}
	// gate holds the producers off while a delta's base and the delta seal.
	var gate sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(p), 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Flip one random chord (v >= u+2, never a base path
				// edge): every prefix of the producers' accepted updates
				// only adds or removes edges inside the path's one
				// component, so every cut is partition-equivalent to the
				// base. One flip per gate hold, not an insert and its
				// delete: a pair leaves the live bytes where they were, so
				// a seal that streamed them without its images would read
				// the cut anyway whenever no pair was half done.
				u := uint32(rng.Uint64N(n - 2))
				v := u + 2 + uint32(rng.Uint64N(uint64(n-2-u)))
				gate.RLock()
				err := toggle(u, v)
				gate.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// A failing run stops the producers before the engine closes under them.
	stopProducers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopProducers()

	for i := 0; i < 3; i++ {
		gw := newGatedWriter()
		defer gw.open()
		ckptErr := make(chan error, 1)
		var baseCkpt bytes.Buffer
		if delta {
			cs, err := func() (*CheckpointSnapshot, error) {
				gate.Lock()
				defer gate.Unlock()
				if err := e.WriteCheckpoint(&baseCkpt); err != nil {
					return nil, err
				}
				// Between the base and the delta, 15 chords flip once: at
				// most 30 dirty nodes, under the default threshold's 51.
				rng := rand.New(rand.NewPCG(uint64(i), 101))
				for range 15 {
					u := uint32(rng.Uint64N(n - 2))
					if err := toggle(u, u+2+uint32(rng.Uint64N(uint64(n-2-u)))); err != nil {
						return nil, err
					}
				}
				return e.SealCheckpointSince(e.Stats().LastCheckpointID)
			}()
			if err != nil {
				t.Fatal(err)
			}
			if !cs.IsDelta() {
				cs.Close()
				t.Fatalf("sealed full over %d nodes against the base just sealed", cs.Nodes())
			}
			go func() {
				defer cs.Close()
				ckptErr <- cs.StreamTo(gw)
			}()
		} else {
			go func() { ckptErr <- e.WriteCheckpoint(gw) }()
		}
		<-gw.started
		// A change lands in the cache and reaches the device, which the
		// scanner reads, when its group is written back. Hold the stream
		// until the seal's images span more groups than the cache holds
		// (one per shard): at least one imaged node has then been written
		// back changed, so a stream that skipped its images would read it
		// past the cut.
		for deadline := time.Now().Add(10 * time.Second); sealImageGroups(e) <= cfg.Shards; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("producer changes took seal images in only %d groups while the stream was held", sealImageGroups(e))
			}
		}
		gw.open()
		if err := <-ckptErr; err != nil {
			t.Fatal(err)
		}
		ckpt := gw.buf.Bytes()
		if delta {
			ckpt = baseCkpt.Bytes()
		}
		back, err := ReadCheckpoint(bytes.NewReader(ckpt), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if delta {
			if err := back.ApplyDeltaCheckpoint(bytes.NewReader(gw.buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstExact(t, back, n, base)
		cut, err := NewEngine(Config{NumNodes: n, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := cut.InsertEdges(base); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, seq := range sealed {
			mustUpdate(t, cut, uint32(seq>>32)&(1<<31-1), uint32(seq))
		}
		mu.Unlock()
		if !bytes.Equal(rawSlots(t, back), rawSlots(t, cut)) {
			t.Fatalf("checkpoint %d's sketches are not those of its cut, %d producer updates in", i, len(sealed))
		}
		back.Close()
		cut.Close()
	}
	stopProducers()
	if ev := e.Stats().SketchCache.Evictions; ev == 0 {
		t.Fatal("the one-group cache recorded no evictions; the test did not race write-backs")
	}
}

// corruptAndExpect writes a checkpoint, applies damage, and requires every
// decode path (streaming read, parallel open, merge) to reject it.
func corruptAndExpect(t *testing.T, damage func([]byte) []byte, wantErr error) {
	t.Helper()
	src, err := NewEngine(Config{NumNodes: 48, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, eg := range randomEdges(48, 100, 7, 8) {
		mustUpdate(t, src, eg.U, eg.V)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	bad := damage(append([]byte(nil), buf.Bytes()...))

	if _, err := ReadCheckpoint(bytes.NewReader(bad), Config{}); err == nil {
		t.Fatal("streaming read accepted damaged checkpoint")
	} else if wantErr != nil && !errors.Is(err, wantErr) {
		t.Fatalf("streaming read error = %v, want %v", err, wantErr)
	}

	path := filepath.Join(t.TempDir(), "bad.gze")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, Config{}); err == nil {
		t.Fatal("parallel open accepted damaged checkpoint")
	}

	if err := src.MergeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("merge accepted damaged checkpoint")
	}
}

func TestCheckpointFaultPaths(t *testing.T) {
	t.Run("truncated-magic", func(t *testing.T) {
		corruptAndExpect(t, func(b []byte) []byte { return b[:2] }, nil)
	})
	t.Run("truncated-header", func(t *testing.T) {
		corruptAndExpect(t, func(b []byte) []byte { return b[:4+10] }, nil)
	})
	t.Run("truncated-mid-section", func(t *testing.T) {
		// Cut inside the first section's payload, mid-slot.
		corruptAndExpect(t, func(b []byte) []byte {
			return b[:layoutOf(t, b).sections[0].off+sectionHeaderLen+100]
		}, nil)
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		corruptAndExpect(t, func(b []byte) []byte {
			b[layoutOf(t, b).sections[0].off+sectionHeaderLen+50] ^= 0xff // payload byte
			return b
		}, ErrCorruptCheckpoint)
	})
	t.Run("bad-footer-magic", func(t *testing.T) {
		corruptAndExpect(t, func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, ErrCorruptCheckpoint)
	})
}

// TestMergeCheckpointIncompatibleText pins that the incompatibility error
// names both parameter sets, so operators can see WHICH side is wrong.
func TestMergeCheckpointIncompatibleText(t *testing.T) {
	a, err := NewEngine(Config{NumNodes: 16, Seed: 0xa11ce})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEngine(Config{NumNodes: 16, Seed: 0xb0b})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	err = a.MergeCheckpoint(&buf)
	if !errors.Is(err, ErrIncompatibleCheckpoint) {
		t.Fatalf("err = %v, want ErrIncompatibleCheckpoint", err)
	}
	msg := err.Error()
	for _, want := range []string{"seed=0xb0b", "seed=0xa11ce", "V=16"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not name %q", msg, want)
		}
	}
}

// TestDiskCheckpointCOWBudgetBackpressure forces every seal image to
// exceed the capture's budget, so workers must wait for the scan instead
// of buffering: the checkpoint still completes, stays an exact cut, and no
// memory-unbounded image map is needed.
func TestDiskCheckpointCOWBudgetBackpressure(t *testing.T) {
	const n = 64
	// CacheBytes 1 pins the write-back cache at its one-group floor, so
	// nearly every post-seal batch evicts a dirty group and writes it back
	// under the scan.
	e, err := NewEngine(Config{NumNodes: n, Seed: 67, SketchesOnDisk: true, CacheBytes: 1, NodesPerGroup: 2, BufferFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.capture.budget = 0 // every seal image waits for its section's scan
	var base []stream.Edge
	for u := uint32(0); u+1 < n; u++ {
		base = append(base, stream.Edge{U: u, V: u + 1})
		mustUpdate(t, e, u, u+1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Chords only (u, u+2): toggling a base path edge would make
			// a mid-pair snapshot cut genuinely disconnected.
			u := uint32(i % (n - 2))
			if err := e.InsertEdge(u, u+2); err != nil {
				t.Error(err)
				return
			}
			if err := e.DeleteEdge(u, u+2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, back, n, base)
		back.Close()
	}
	close(stop)
	wg.Wait()
}

// TestOpenCheckpointRejectsOverlappingFooter crafts a footer whose entries
// overlap; the parallel restore must reject it up front — before any
// decode worker runs — since overlapping sections would be decoded into
// the same slab region concurrently.
func TestOpenCheckpointRejectsOverlappingFooter(t *testing.T) {
	src, err := NewEngine(Config{NumNodes: 512, Seed: 71, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, eg := range randomEdges(512, 200, 13, 14) {
		mustUpdate(t, src, eg.U, eg.V)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	l := layoutOf(t, b)
	if len(l.sections) < 2 {
		t.Fatalf("need >= 2 sections for an overlap, got %d", len(l.sections))
	}
	footerOff := l.footerOff
	// Point entry 1 at entry 0's section: same start/offset = overlap.
	copy(b[footerOff+footerEntryLen:footerOff+2*footerEntryLen], b[footerOff:footerOff+footerEntryLen])
	path := filepath.Join(t.TempDir(), "overlap.gze")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, Config{Shards: 4}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("overlapping footer: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// checkpointSlots returns the slot bytes a full checkpoint stream carries,
// in node order: its sections' payloads, concatenated.
func checkpointSlots(t *testing.T, b []byte) []byte {
	t.Helper()
	var slots []byte
	for _, run := range layoutOf(t, b).sections {
		payload := run.off + sectionHeaderLen
		slots = append(slots, b[payload:payload+int(binary.LittleEndian.Uint64(b[run.off+8:]))]...)
	}
	return slots
}

// referenceSlots returns the sketch bytes of a quiesced engine of cfg's
// geometry that ingested exactly edges — the bytes any exact cut holding
// those edges must equal, whatever the sharding or interleaving.
func referenceSlots(t *testing.T, cfg Config, edges []stream.Edge) []byte {
	t.Helper()
	ref, err := NewEngine(Config{NumNodes: cfg.NumNodes, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.InsertEdges(edges); err != nil {
		t.Fatal(err)
	}
	return rawSlots(t, ref)
}

// liveProducers toggles random edges on an engine from several goroutines,
// draining every few updates so applies land while a checkpoint streams.
// Each accepted edge is logged under gate's read lock, so whoever holds
// the write lock sees exactly the edges ingested so far.
type liveProducers struct {
	gate     sync.RWMutex
	mu       sync.Mutex
	edges    []stream.Edge
	drains   atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func startProducers(t *testing.T, e *Engine, count int, seed uint64) *liveProducers {
	p := &liveProducers{stop: make(chan struct{})}
	n := uint64(e.cfg.NumNodes)
	for k := 0; k < count; k++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			for i := 1; ; i++ {
				select {
				case <-p.stop:
					return
				default:
				}
				eg := stream.Edge{U: uint32(rng.Uint64N(n)), V: uint32(rng.Uint64N(n))}.Normalize()
				if eg.U == eg.V {
					continue
				}
				p.gate.RLock()
				err := e.InsertEdge(eg.U, eg.V)
				if err == nil {
					p.mu.Lock()
					p.edges = append(p.edges, eg)
					p.mu.Unlock()
				}
				p.gate.RUnlock()
				if err == nil && i%64 == 0 {
					err = e.Drain()
					p.drains.Add(1)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	return p
}

// seal seals a full checkpoint with the producers held off, and returns it
// with the edges its cut holds beyond what was ingested before they started.
func (p *liveProducers) seal(t *testing.T, e *Engine) (*CheckpointSnapshot, []stream.Edge) {
	t.Helper()
	p.gate.Lock()
	defer p.gate.Unlock()
	cs, err := e.SealCheckpointSince(0)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return cs, slices.Clone(p.edges)
}

// sealDelta seals, with the producers held off, a full base checkpoint,
// which it streams, then ingests extra and seals a delta against the base.
// It returns the base's bytes and the delta with the edges its cut holds
// beyond what was ingested before the producers started; extra counts
// among the producers' edges from then on.
func (p *liveProducers) sealDelta(t *testing.T, e *Engine, extra []stream.Edge) ([]byte, *CheckpointSnapshot, []stream.Edge) {
	t.Helper()
	p.gate.Lock()
	defer p.gate.Unlock()
	var base bytes.Buffer
	if err := e.WriteCheckpoint(&base); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertEdges(extra); err != nil {
		t.Fatal(err)
	}
	cs, err := e.SealCheckpointSince(e.Stats().LastCheckpointID)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.IsDelta() {
		cs.Close()
		t.Fatalf("sealed full over %d nodes against the base just sealed", cs.Nodes())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.edges = append(p.edges, extra...)
	return base.Bytes(), cs, slices.Clone(p.edges)
}

// baseAndDelta restores the full checkpoint base, applies the delta
// checkpoint delta onto it, and returns the resulting sketch bytes.
func baseAndDelta(t *testing.T, base, delta []byte) []byte {
	t.Helper()
	e, err := ReadCheckpoint(bytes.NewReader(base), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ApplyDeltaCheckpoint(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
	return rawSlots(t, e)
}

// finish stops the producers and returns every edge they ingested. Tests
// also defer it, so a failing test stops them before closing the engine.
func (p *liveProducers) finish() []stream.Edge {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	return p.edges
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
	}
}

// checkpointStores are the placements the capture's checkpoint tests run
// in: RAM, and out of core at the write-back cache's one-group floor, where
// nearly every batch evicts a dirty group and its write-back races the
// scan.
var checkpointStores = []struct {
	name string
	disk bool
}{{"ram", false}, {"disk", true}}

// placed returns cfg in the placement of checkpointStores[i].
func placed(cfg Config, i int) Config {
	if checkpointStores[i].disk {
		cfg.SketchesOnDisk, cfg.CacheBytes = true, 1
	}
	return cfg
}

// unboundCapture gives e's capture RAM's budget, an image for every node,
// for a test whose producers must go on while it holds the scan: out of
// core at the one-group floor the budget is zero, and every seal image
// waits for the scan.
func unboundCapture(e *Engine) {
	e.capture.budget = (int(e.n) + e.capture.maxBase) * e.slotSize
}

// sealImages returns how many images e's live seal holds.
// sealImageGroups counts the store groups of the nodes the live seal
// holds images of.
func sealImageGroups(e *Engine) int {
	npg := uint32(deviceOf(e).npg)
	e.capture.mu.Lock()
	defer e.capture.mu.Unlock()
	groups := map[uint32]bool{}
	for node := range e.capture.sealed.Load().images {
		groups[node/npg] = true
	}
	return len(groups)
}

func sealImages(e *Engine) int {
	e.capture.mu.Lock()
	defer e.capture.mu.Unlock()
	return len(e.capture.sealed.Load().images)
}

// TestRAMCheckpointLiveProducersExactCut is the twin of
// TestCheckpointLowStallAndExactCut with producers running throughout:
// while each stream is blocked on its writer, producers keep ingesting and
// draining (ingestion never waits on the writer) and change nodes ahead of
// the scan (pre-images are deposited); once released, the scan reads the
// store under those applies — out of core the device, while write-backs
// rewrite it. Every checkpoint must equal the seal-time cut byte for byte,
// and the live engine must hold every update; RAM and out of core. The
// delta input seals each checkpoint as a delta against a base sealed just
// before it, and holds its stream until a producer's change to a planned
// node has taken a seal image: the base plus the delta must equal the cut.
func TestRAMCheckpointLiveProducersExactCut(t *testing.T) {
	for si, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			for _, delta := range []bool{false, true} {
				name := "full"
				if delta {
					name = "delta"
				}
				t.Run(name, func(t *testing.T) {
					liveProducersExactCut(t, placed(Config{NumNodes: 512, Seed: 73, Shards: 2}, si), delta)
				})
			}
		})
	}
}

func liveProducersExactCut(t *testing.T, cfg Config, delta bool) {
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	unboundCapture(e)
	base := randomEdges(cfg.NumNodes, 2000, 21, 22)
	if err := e.InsertEdges(base); err != nil {
		t.Fatal(err)
	}
	p := startProducers(t, e, 3, 5)
	defer p.finish()
	for i := 0; i < 3; i++ {
		func() {
			var cs *CheckpointSnapshot
			var cut []stream.Edge
			var baseCkpt []byte
			if delta {
				baseCkpt, cs, cut = p.sealDelta(t, e, randomEdges(cfg.NumNodes, 40, 31, uint64(i)))
			} else {
				cs, cut = p.seal(t, e)
			}
			defer cs.Close()
			if len(cs.sections) < 4 {
				t.Fatalf("%d sections: too few for the scan to lag the producers", len(cs.sections))
			}
			gw := newGatedWriter()
			release := sync.OnceFunc(func() { close(gw.gate) })
			var streamErr error
			streamed := make(chan struct{})
			go func() {
				defer close(streamed)
				streamErr = cs.StreamTo(gw)
			}()
			defer func() { release(); <-streamed }()
			drains := p.drains.Load() + 4
			waitUntil(t, "producers draining behind a blocked checkpoint writer", func() bool { return p.drains.Load() >= drains })
			if delta {
				waitUntil(t, "a producer's change to a planned node taking a seal image", func() bool { return sealImages(e) > 0 })
			}
			if sealImages(e) == 0 {
				t.Fatal("no pre-image deposited: the producers never raced the scan")
			}
			release()
			<-streamed
			if streamErr != nil {
				t.Fatal(streamErr)
			}
			want := referenceSlots(t, cfg, slices.Concat(base, cut))
			if !delta {
				if !bytes.Equal(checkpointSlots(t, gw.buf.Bytes()), want) {
					t.Fatalf("checkpoint %d taken under live producers is not the seal-time cut", i)
				}
				return
			}
			if got := baseAndDelta(t, baseCkpt, gw.buf.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("delta %d taken under live producers, applied to its base, is not the seal-time cut", i)
			}
		}()
	}
	all := p.finish()
	if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, slices.Concat(base, all))) {
		t.Fatal("the live engine does not hold exactly the updates ingested across the checkpoints")
	}
}

// TestRAMCheckpointCOWBudgetBackpressure is the live-producers twin of
// TestDiskCheckpointCOWBudgetBackpressure, in RAM and out of core: with the
// capture's budget cut to a few slots, changes ahead of the scan take
// images until it runs out and then wait for their section's capture; cut
// to zero, every one waits. Either way the checkpoints under live
// producers are exact cuts.
func TestRAMCheckpointCOWBudgetBackpressure(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slots int // the capture's budget in slots
	}{{"few-slots", 4}, {"zero", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			for si, store := range checkpointStores {
				t.Run(store.name, func(t *testing.T) {
					budgetBackpressure(t, placed(Config{NumNodes: 512, Seed: 79, Shards: 2}, si), tc.slots)
				})
			}
		})
	}
}

func budgetBackpressure(t *testing.T, cfg Config, slots int) {
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.capture.budget = slots * e.slotSize
	base := randomEdges(cfg.NumNodes, 2000, 23, 24)
	if err := e.InsertEdges(base); err != nil {
		t.Fatal(err)
	}
	p := startProducers(t, e, 2, 9)
	defer p.finish()
	for i := 0; i < 3; i++ {
		cs, cut := p.seal(t, e)
		var buf bytes.Buffer
		err := cs.StreamTo(&buf)
		cs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointSlots(t, buf.Bytes()), referenceSlots(t, cfg, slices.Concat(base, cut))) {
			t.Fatalf("checkpoint %d is not the seal-time cut", i)
		}
	}
	all := p.finish()
	if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, slices.Concat(base, all))) {
		t.Fatal("the live engine does not hold exactly the updates ingested across the checkpoints")
	}
}

// TestRAMCheckpointCOWClaimWaitsForInflightApply holds a worker inside its
// apply of a node (past the capture's begin, before the store's apply)
// while the stream runs: the scanner claims the node's section and must
// wait there — the stream cannot finish — until the apply ends, after which
// the section is captured with the node's pre-image. RAM and out of core.
func TestRAMCheckpointCOWClaimWaitsForInflightApply(t *testing.T) {
	for si, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			claimWaitsForInflightApply(t, placed(Config{NumNodes: 512, Seed: 83, Shards: 1, Buffering: BufferNone}, si))
		})
	}
}

func claimWaitsForInflightApply(t *testing.T, cfg Config) {
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Both endpoints of the held apply's edge take an image before the
	// scan starts.
	unboundCapture(e)
	const target = 500 // in the last section
	var armed atomic.Bool
	entered, proceed := make(chan struct{}), make(chan struct{})
	e.testApplyHook = func(node uint32) func() {
		if node == target && armed.CompareAndSwap(true, false) {
			close(entered)
			<-proceed
		}
		return func() {}
	}
	base := randomEdges(cfg.NumNodes, 1000, 25, 26)
	if err := e.InsertEdges(base); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	cs, err := e.SealCheckpointSince(0)
	if err != nil {
		t.Fatal(err)
	}
	// On failure, let the held apply finish and the snapshot go before the
	// deferred engine Close drains.
	defer cs.Close()
	release := sync.OnceFunc(func() { close(proceed) })
	defer release()
	sec := e.capture.sealed.Load().section(target)
	if sec <= 0 {
		t.Fatal("target node shares the first section")
	}
	armed.Store(true)
	extra := stream.Edge{U: 3, V: target}
	ingested := make(chan error, 1)
	go func() { ingested <- e.InsertEdge(extra.U, extra.V) }()
	<-entered // the worker holds target's section in flight

	var buf bytes.Buffer
	streamed := make(chan error, 1)
	go func() { streamed <- cs.StreamTo(&buf) }()
	waitUntil(t, "the scanner claiming the in-flight section", func() bool {
		e.capture.mu.Lock()
		defer e.capture.mu.Unlock()
		return e.capture.sealed.Load().claimed[sec]
	})
	select {
	case err := <-streamed:
		t.Fatalf("the stream finished (err %v) with an apply in flight inside a claimed section", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}
	cs.Close()
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointSlots(t, buf.Bytes()), referenceSlots(t, cfg, base)) {
		t.Fatal("the checkpoint holds the apply that was in flight at its claim")
	}
	if !bytes.Equal(rawSlots(t, e), referenceSlots(t, cfg, append(slices.Clone(base), extra))) {
		t.Fatal("the live engine lost the apply that raced the scan")
	}
}

// TestRAMCheckpointAllocatesSectionsNotSketches pins what a RAM checkpoint
// holds in memory, full or delta: a quiet full one allocates about the
// sections in flight (one buffer per encoder, plus one), never a second
// copy of the sketches; a delta over at least 150 dirty nodes allocates
// less than half its slots' bytes, so it holds no copy of them either —
// its seal is a plan, not a buffer.
func TestRAMCheckpointAllocatesSectionsNotSketches(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		e, err := NewEngine(Config{NumNodes: 1024, Seed: 89, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.InsertEdges(randomEdges(1024, 2000, 27, 28)); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		sketches := int64(e.cfg.NumNodes) * int64(e.slotSize)
		section := int64(e.sectionNodes()) * int64(e.slotSize)
		limit := int64(len(e.shards)+1)*section + 1<<20
		if limit > sketches/2 {
			t.Fatalf("sketches (%d B) too small to tell %d B of sections from a copy", sketches, limit)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.WriteCheckpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > limit {
			t.Fatalf("a quiet checkpoint allocated %d B; its sections in flight need %d B, the sketches are %d B", grew, limit, sketches)
		}
	})
	t.Run("delta", func(t *testing.T) {
		const n = 2048
		e, err := NewEngine(Config{NumNodes: n, Seed: 89, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.InsertEdges(randomEdges(n, 4000, 27, 28)); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteCheckpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		baseID := e.Stats().LastCheckpointID
		if err := e.InsertEdges(randomEdges(n, 90, 29, 30)); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs, err := e.SealCheckpointSince(baseID)
		if err != nil {
			t.Fatal(err)
		}
		err = cs.StreamTo(io.Discard)
		cs.Close()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !cs.IsDelta() || cs.Nodes() < 150 {
			t.Fatalf("sealed delta=%v over %d nodes, want a delta over at least 150", cs.IsDelta(), cs.Nodes())
		}
		slots := int64(cs.Nodes()) * int64(e.slotSize)
		grew := int64(after.TotalAlloc - before.TotalAlloc)
		if grew >= slots/2 {
			t.Fatalf("a quiet delta over %d nodes allocated %d B; its slots are %d B", cs.Nodes(), grew, slots)
		}
		t.Logf("a delta over %d nodes (%d B of slots) allocated %d B", cs.Nodes(), slots, grew)
	})
}
