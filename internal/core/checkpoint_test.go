package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
			back, err := ReadCheckpoint(&buf, Config{SketchesOnDisk: !disk, Workers: 2})
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

// TestMergeCheckpointShards splits one stream across two engines (the
// distributed-ingestion pattern of the paper's conclusion), checkpoints
// one shard, merges it into the other, and verifies the merged engine
// answers for the union.
func TestMergeCheckpointShards(t *testing.T) {
	const n = 64
	cfg := Config{NumNodes: n, Seed: 17}
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rng := rand.New(rand.NewPCG(3, 4))
	var edges []stream.Edge
	seen := map[stream.Edge]bool{}
	for i := 0; i < 500; i++ {
		e := stream.Edge{U: uint32(rng.Uint64N(n)), V: uint32(rng.Uint64N(n))}.Normalize()
		if e.U == e.V || seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
		shard := a
		if i%2 == 1 {
			shard = b
		}
		mustUpdate(t, shard, e.U, e.V)
	}

	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	checkAgainstExact(t, a, n, edges)
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
	buf     bytes.Buffer
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

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
// is not held for the stream write; (2) exact cut — the update accepted
// mid-stream is NOT in the restored state (RAM mode seals the slabs, disk
// mode preserves pre-images copy-on-write), which also pins that it is not
// lost from the live engine.
func TestCheckpointLowStallAndExactCut(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			const n = 64
			e, err := NewEngine(Config{NumNodes: n, Seed: 29, SketchesOnDisk: disk})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Base graph: a path over the even nodes; odd nodes isolated.
			var base []stream.Edge
			for u := uint32(0); u+2 < n; u += 2 {
				base = append(base, stream.Edge{U: u, V: u + 2})
				mustUpdate(t, e, u, u+2)
			}

			gw := newGatedWriter()
			ckptErr := make(chan error, 1)
			go func() { ckptErr <- e.WriteCheckpoint(gw) }()
			<-gw.started // the stream write began: the seal is over

			// Ingestion must proceed while the stream is blocked.
			inserted := make(chan error, 1)
			go func() { inserted <- e.InsertEdge(1, 3) }()
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

			close(gw.gate)
			if err := <-ckptErr; err != nil {
				t.Fatal(err)
			}

			// The checkpoint holds exactly the pre-checkpoint cut: edge
			// (1,3) is absent even though it was applied mid-stream.
			back, err := ReadCheckpoint(bytes.NewReader(gw.buf.Bytes()), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			checkAgainstExact(t, back, n, base)
			if st := e.Stats(); st.CheckpointStallNanos == 0 {
				t.Fatal("CheckpointStallNanos not recorded")
			}
			// And the live engine still has it.
			checkAgainstExact(t, e, n, append(append([]stream.Edge(nil), base...), stream.Edge{U: 1, V: 3}))
		})
	}
}

// TestDiskCheckpointConcurrentProducers stresses the copy-on-write scan
// under -race: producers keep toggling redundant edges inside one big
// component while checkpoints stream, so any snapshot cut yields the same
// partition, which each restore verifies.
func TestDiskCheckpointConcurrentProducers(t *testing.T) {
	const n = 64
	e, err := NewEngine(Config{NumNodes: n, Seed: 31, Shards: 2, SketchesOnDisk: true, BufferFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var base []stream.Edge
	for u := uint32(0); u+1 < n; u++ {
		base = append(base, stream.Edge{U: u, V: u + 1})
		mustUpdate(t, e, u, u+1)
	}

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
				// Insert+delete the same random chord (v >= u+2, never a
				// base path edge): any prefix of this producer's accepted
				// updates leaves at most one extra edge inside the
				// already-connected component, so every cut is
				// partition-equivalent to the base.
				u := uint32(rng.Uint64N(n - 2))
				v := u + 2 + uint32(rng.Uint64N(uint64(n-2-u)))
				if err := e.InsertEdge(u, v); err != nil {
					t.Error(err)
					return
				}
				if err := e.DeleteEdge(u, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	for i := 0; i < 3; i++ {
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

// TestDiskCheckpointCOWBudgetBackpressure forces every copy-on-write
// deposit to exceed the pre-image budget, so workers must wait for the
// scan instead of buffering: the checkpoint still completes, stays an
// exact cut, and no memory-unbounded pre-image map is needed.
func TestDiskCheckpointCOWBudgetBackpressure(t *testing.T) {
	const n = 64
	// CacheBytes 1 pins the write-back cache at its one-group floor, so
	// nearly every post-seal batch evicts a dirty group and runs the COW
	// write barrier — the deposits the budget backpressure throttles.
	e, err := NewEngine(Config{NumNodes: n, Seed: 67, SketchesOnDisk: true, CacheBytes: 1, NodesPerGroup: 2, BufferFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.cowBudget = -1 // every preserve waits for its section's scan
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
