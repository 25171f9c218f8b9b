package core

import (
	"errors"
	"testing"

	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// TestKronStreamEndToEnd replays a full dense Kronecker insert/delete
// stream (the paper's workload class) through every engine configuration
// and checks the recovered partition against the exact final edge set.
func TestKronStreamEndToEnd(t *testing.T) {
	const scale = 7
	edges := kron.DenseKronecker(scale, 21)
	res := kron.ToStream(edges, 1<<scale, kron.StreamOptions{ChurnFraction: 0.1}, 22)

	configs := map[string]Config{
		"leaf-ram":  {Seed: 5, Shards: 2},
		"tree-ram":  {Seed: 5, Shards: 2, Buffering: BufferTree},
		"leaf-disk": {Seed: 5, Shards: 2, SketchesOnDisk: true},
		"tree-disk": {Seed: 5, Shards: 2, Buffering: BufferTree, SketchesOnDisk: true},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			cfg.NumNodes = res.NumNodes
			if cfg.SketchesOnDisk || cfg.Buffering == BufferTree {
				cfg.Dir = t.TempDir()
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, u := range res.Updates {
				if err := e.Update(u); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstExact(t, e, res.NumNodes, res.FinalEdges)
		})
	}
}

// TestSnapshotIsolation: a query must not consume the live sketches —
// asking twice and then continuing to ingest must keep giving exact
// answers.
func TestSnapshotIsolation(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var edges []stream.Edge
	for u := uint32(0); u < 16; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 16})
		mustUpdate(t, e, u, u+16)
	}
	checkAgainstExact(t, e, 32, edges)
	checkAgainstExact(t, e, 32, edges) // second query on same state
	for u := uint32(0); u < 15; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 1})
		mustUpdate(t, e, u, u+1)
	}
	checkAgainstExact(t, e, 32, edges)
}

func TestStatsAccounting(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 10; i++ {
		mustUpdate(t, e, uint32(i), uint32(i+1))
	}
	if _, err := e.SpanningForest(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Updates != 10 {
		t.Fatalf("Updates = %d, want 10", st.Updates)
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded after drain")
	}
	if st.MemoryBytes == 0 {
		t.Fatal("RAM-mode engine reports zero memory")
	}
	if st.QueryRounds == 0 {
		t.Fatal("query rounds not recorded")
	}
}

func TestDefaultRounds(t *testing.T) {
	cases := []struct {
		n    uint32
		want int
	}{{2, 3}, {3, 4}, {4, 4}, {1024, 12}, {1 << 17, 19}}
	for _, c := range cases {
		if got := DefaultRounds(c.n); got != c.want {
			t.Errorf("DefaultRounds(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumNodes: 1}); err == nil {
		t.Fatal("NumNodes=1 accepted")
	}
	if _, err := NewEngine(Config{NumNodes: 8, Buffering: BufferingKind(99)}); err == nil {
		t.Fatal("unknown buffering kind accepted")
	}
}

func TestBufferingKindString(t *testing.T) {
	if BufferLeaf.String() != "leaf-only" || BufferTree.String() != "gutter-tree" ||
		BufferNone.String() != "unbuffered" || BufferingKind(9).String() == "" {
		t.Fatal("BufferingKind.String broken")
	}
}

func TestQueryFailedWithInsufficientRounds(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 64, Seed: 8, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for u := uint32(0); u < 63; u++ {
		mustUpdate(t, e, u, u+1)
	}
	if _, err := e.SpanningForest(); !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("err = %v, want ErrQueryFailed", err)
	}
}

func TestCloseIsIdempotentAndStopsWorkers(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 8, Seed: 9, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, 0, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestManySmallBatchesUnderContention hammers one node from many batches
// with several workers to exercise the per-node locking.
func TestManySmallBatchesUnderContention(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 8, Seed: 10, Shards: 8, BufferFactor: 0.00001})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Toggle edge (0,1) an odd number of times, (0,2) an even number.
	for i := 0; i < 1001; i++ {
		mustUpdate(t, e, 0, 1)
	}
	for i := 0; i < 1000; i++ {
		mustUpdate(t, e, 0, 2)
	}
	checkAgainstExact(t, e, 8, []stream.Edge{{U: 0, V: 1}})
}

// TestGutterTreeCustomConfig drives the engine with an aggressive small
// tree to force deep recursive flushes mid-stream.
func TestGutterTreeCustomConfig(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:  64,
		Seed:      11,
		Shards:    2,
		Buffering: BufferTree,
		Tree:      gutter.TreeConfig{Fanout: 2, BufferRecords: 8, LeafRecords: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var edges []stream.Edge
	for u := uint32(0); u < 63; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 1})
		mustUpdate(t, e, u, u+1)
	}
	checkAgainstExact(t, e, 64, edges)
}
