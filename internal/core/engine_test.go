package core

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// exactComponents computes the reference partition with a DSU over edges.
func exactComponents(n uint32, edges []stream.Edge) ([]uint32, int) {
	d := dsu.New(int(n))
	for _, e := range edges {
		d.Union(e.U, e.V)
	}
	rep, _ := d.Components()
	return rep, d.Count()
}

// samePartition reports whether two representative vectors encode the same
// partition (representative labels may differ).
func samePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[uint32]uint32)
	bwd := make(map[uint32]uint32)
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := bwd[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

func checkAgainstExact(t *testing.T, e *Engine, n uint32, edges []stream.Edge) {
	t.Helper()
	rep, count, err := e.ConnectedComponents()
	if err != nil {
		t.Fatalf("ConnectedComponents: %v", err)
	}
	wantRep, wantCount := exactComponents(n, edges)
	if count != wantCount {
		t.Fatalf("component count = %d, want %d", count, wantCount)
	}
	if !samePartition(rep, wantRep) {
		t.Fatalf("partition mismatch")
	}
}

func TestEngineSmallPath(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var edges []stream.Edge
	for u := uint32(0); u < 15; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 1})
		if err := e.InsertEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstExact(t, e, 16, edges)
}

func TestEngineInsertDeleteCancel(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Connect 0-1-2 then cut 1-2 again: final graph is the single edge 0-1.
	mustUpdate(t, e, 0, 1)
	mustUpdate(t, e, 1, 2)
	mustUpdate(t, e, 1, 2) // delete (same toggle)
	checkAgainstExact(t, e, 8, []stream.Edge{{U: 0, V: 1}})
}

func mustUpdate(t *testing.T, e *Engine, u, v uint32) {
	t.Helper()
	if err := e.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRandomGraphsMatchExact toggles random edges through every
// buffering mode and, out of core, over the corners of the cache budget ×
// node-group size grid (a one-group cache evicts on nearly every batch),
// and checks each answer against the exact components.
func TestEngineRandomGraphsMatchExact(t *testing.T) {
	for _, cfgName := range []string{"leaf", "tree", "none", "disk", "disk-cache1", "disk-cache1-npg1", "disk-npg16"} {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/%d", cfgName, trial), func(t *testing.T) {
				n := uint32(64)
				cfg := Config{NumNodes: n, Seed: uint64(trial) + 42, Shards: 2}
				switch cfgName {
				case "tree":
					cfg.Buffering = BufferTree
				case "none":
					cfg.Buffering = BufferNone
				case "disk":
					cfg.SketchesOnDisk = true
				case "disk-cache1":
					cfg.SketchesOnDisk, cfg.CacheBytes = true, 1
				case "disk-cache1-npg1":
					cfg.SketchesOnDisk, cfg.CacheBytes, cfg.NodesPerGroup = true, 1, 1
				case "disk-npg16":
					cfg.SketchesOnDisk, cfg.NodesPerGroup = true, 16
				}
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				rng := rand.New(rand.NewPCG(uint64(trial), 99))
				present := make(map[stream.Edge]bool)
				for i := 0; i < 600; i++ {
					u := uint32(rng.Uint64N(uint64(n)))
					v := uint32(rng.Uint64N(uint64(n)))
					if u == v {
						continue
					}
					eg := stream.Edge{U: u, V: v}.Normalize()
					present[eg] = !present[eg]
					mustUpdate(t, e, u, v)
				}
				var edges []stream.Edge
				for eg, on := range present {
					if on {
						edges = append(edges, eg)
					}
				}
				checkAgainstExact(t, e, n, edges)
			})
		}
	}
}

// TestNegativeCacheBytesRefused: out of core every batch applies through
// the write-back cache, so a negative budget is a configuration error,
// while RAM mode ignores the field.
func TestNegativeCacheBytesRefused(t *testing.T) {
	if _, err := NewEngine(Config{NumNodes: 16, SketchesOnDisk: true, CacheBytes: -1}); err == nil {
		t.Fatal("NewEngine accepted CacheBytes -1 with sketches on disk")
	}
	e, err := NewEngine(Config{NumNodes: 16, CacheBytes: -1})
	if err != nil {
		t.Fatalf("RAM mode refused CacheBytes -1: %v", err)
	}
	e.Close()
}

// TestRegisterFlags pins the engine flag table both command-line tools
// share: each flag lands on its Config field, and the defaults leave
// every field at its engine default (zero) except the seed.
func TestRegisterFlags(t *testing.T) {
	var def Config
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	def.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, Config{Seed: 1}) {
		t.Fatalf("defaults parse to %+v, want only Seed 1", def)
	}
	var c Config
	fs = flag.NewFlagSet("set", flag.ContinueOnError)
	c.RegisterFlags(fs)
	err := fs.Parse([]string{"-seed", "7", "-shards", "3", "-fsync", "interval", "-fsync-interval", "5ms",
		"-wal-segment-bytes", "4096", "-delta-threshold", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Shards: 3, WALFsync: wal.FsyncInterval, WALFsyncInterval: 5 * time.Millisecond,
		WALSegmentBytes: 4096, DeltaCheckpointThreshold: -1}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("flags parse to %+v, want %+v", c, want)
	}
}
