package graphzeppelin_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphzeppelin"
)

func TestCheckpointSaveLoadFile(t *testing.T) {
	g, err := graphzeppelin.New(16, graphzeppelin.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 15; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "graph.gze")
	if err := g.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	back, err := graphzeppelin.OpenCheckpoint(path, graphzeppelin.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	_, count, err := back.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("restored path graph has %d components", count)
	}
	// The restored graph keeps accepting the stream where it left off,
	// including deletions of edges inserted before the checkpoint.
	if err := back.Delete(7, 8); err != nil {
		t.Fatal(err)
	}
	_, count, err = back.ConnectedComponents()
	if err != nil || count != 2 {
		t.Fatalf("after post-restore delete: count = %d, err = %v", count, err)
	}
}

func TestCheckpointMergeShards(t *testing.T) {
	mk := func() *graphzeppelin.Graph {
		g, err := graphzeppelin.New(32, graphzeppelin.WithSeed(22))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	for u := uint32(0); u < 15; u++ {
		if err := a.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	for u := uint32(16); u < 31; u++ {
		if err := b.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert(15, 16); err != nil { // the bridge lives on shard b
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	_, count, err := a.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("merged shards give %d components, want 1", count)
	}
}

func TestBipartiteTesterAPI(t *testing.T) {
	bt, err := graphzeppelin.NewBipartiteTester(8, graphzeppelin.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	mustIns := func(u, v uint32) {
		t.Helper()
		if err := bt.Insert(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustIns(0, 1)
	mustIns(1, 2)
	mustIns(2, 0) // triangle
	if ok, err := bt.IsBipartite(); err != nil || ok {
		t.Fatalf("triangle: IsBipartite = %v, %v", ok, err)
	}
	if err := bt.Delete(2, 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := bt.IsBipartite(); err != nil || !ok {
		t.Fatalf("path: IsBipartite = %v, %v", ok, err)
	}
}

func TestForestPeelerAPI(t *testing.T) {
	p, err := graphzeppelin.NewForestPeeler(2, 8, graphzeppelin.WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// 6-cycle: 2-edge-connected.
	for u := uint32(0); u < 6; u++ {
		if err := p.Insert(u, (u+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	lambda, err := p.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 2 {
		t.Fatalf("cycle connectivity = %d, want 2", lambda)
	}
}

func TestMSFWeightSketchAPI(t *testing.T) {
	s, err := graphzeppelin.NewMSFWeightSketch(3, 4, graphzeppelin.WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	w, err := s.Weight()
	if err != nil || w != 3 { // MSF takes weights 1 and 2
		t.Fatalf("Weight = %d, %v; want 3", w, err)
	}
	if err := s.Delete(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	w, err = s.Weight()
	if err != nil || w != 4 { // now forced onto weights 1 and 3
		t.Fatalf("Weight = %d, %v; want 4", w, err)
	}
}

// TestStreamSketchCheckpointAllStructures round-trips the distributed
// shard-merge recipe through the StreamSketch interface for every
// structure: two identically constructed instances split one stream,
// one ships its checkpoint, and the merged instance answers for the union
// exactly like an instance that saw the whole stream.
func TestStreamSketchCheckpointAllStructures(t *testing.T) {
	opts := []graphzeppelin.Option{graphzeppelin.WithSeed(77)}
	cases := []struct {
		name  string
		build func(t *testing.T) (a, b, whole graphzeppelin.StreamSketch)
		query func(t *testing.T, sk graphzeppelin.StreamSketch) any
	}{
		{
			name: "graph",
			build: func(t *testing.T) (a, b, whole graphzeppelin.StreamSketch) {
				mk := func() graphzeppelin.StreamSketch {
					g, err := graphzeppelin.New(32, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				return mk(), mk(), mk()
			},
			query: func(t *testing.T, sk graphzeppelin.StreamSketch) any {
				_, count, err := sk.(*graphzeppelin.Graph).ConnectedComponents()
				if err != nil {
					t.Fatal(err)
				}
				return count
			},
		},
		{
			name: "bipartite",
			build: func(t *testing.T) (a, b, whole graphzeppelin.StreamSketch) {
				mk := func() graphzeppelin.StreamSketch {
					b, err := graphzeppelin.NewBipartiteTester(32, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				return mk(), mk(), mk()
			},
			query: func(t *testing.T, sk graphzeppelin.StreamSketch) any {
				bip, err := sk.(*graphzeppelin.BipartiteTester).IsBipartite()
				if err != nil {
					t.Fatal(err)
				}
				return bip
			},
		},
		{
			name: "kforests",
			build: func(t *testing.T) (a, b, whole graphzeppelin.StreamSketch) {
				mk := func() graphzeppelin.StreamSketch {
					p, err := graphzeppelin.NewForestPeeler(2, 32, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				return mk(), mk(), mk()
			},
			query: func(t *testing.T, sk graphzeppelin.StreamSketch) any {
				lambda, err := sk.(*graphzeppelin.ForestPeeler).EdgeConnectivity()
				if err != nil {
					t.Fatal(err)
				}
				return lambda
			},
		},
		{
			name: "msf",
			build: func(t *testing.T) (a, b, whole graphzeppelin.StreamSketch) {
				mk := func() graphzeppelin.StreamSketch {
					m, err := graphzeppelin.NewMSFWeightSketch(4, 32, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				return mk(), mk(), mk()
			},
			query: func(t *testing.T, sk graphzeppelin.StreamSketch) any {
				w, err := sk.(*graphzeppelin.MSFWeightSketch).Weight()
				if err != nil {
					t.Fatal(err)
				}
				return w
			},
		},
	}
	// An odd cycle over 0..4 plus a path into the 20s: non-bipartite,
	// connected core, some isolated nodes.
	var updates []graphzeppelin.Update
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {4, 10}, {10, 20}, {20, 21}} {
		updates = append(updates, graphzeppelin.Update{
			Edge: graphzeppelin.Edge{U: e[0], V: e[1]}, Type: graphzeppelin.Insert,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, whole := tc.build(t)
			defer a.Close()
			defer b.Close()
			defer whole.Close()
			for i, u := range updates {
				target := a
				if i%2 == 1 {
					target = b
				}
				if err := target.Apply(u); err != nil {
					t.Fatal(err)
				}
				if err := whole.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := b.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if err := a.MergeCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			got := tc.query(t, a)
			want := tc.query(t, whole)
			if got != want {
				t.Fatalf("merged %s answers %v, single-instance reference answers %v", tc.name, got, want)
			}
		})
	}
}

// TestExtensionCheckpointRejectsWrongContainer checks cross-format safety:
// a Graph checkpoint is not accepted by an extension and vice versa, and
// layer-count mismatches are rejected.
func TestExtensionCheckpointRejectsWrongContainer(t *testing.T) {
	g, err := graphzeppelin.New(16, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bt, err := graphzeppelin.NewBipartiteTester(16, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	var gbuf, bbuf bytes.Buffer
	if err := g.WriteCheckpoint(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := bt.WriteCheckpoint(&bbuf); err != nil {
		t.Fatal(err)
	}
	if err := bt.MergeCheckpoint(bytes.NewReader(gbuf.Bytes())); err == nil {
		t.Fatal("extension accepted a bare Graph checkpoint")
	}
	if err := g.MergeCheckpoint(bytes.NewReader(bbuf.Bytes())); err == nil {
		t.Fatal("Graph accepted a BipartiteTester checkpoint")
	}
	p3, err := graphzeppelin.NewForestPeeler(3, 16, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	p2, err := graphzeppelin.NewForestPeeler(2, 16, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	var pbuf bytes.Buffer
	if err := p2.WriteCheckpoint(&pbuf); err != nil {
		t.Fatal(err)
	}
	if err := p3.MergeCheckpoint(bytes.NewReader(pbuf.Bytes())); !errors.Is(err, graphzeppelin.ErrIncompatibleCheckpoint) {
		t.Fatalf("layer-count mismatch error = %v, want ErrIncompatibleCheckpoint", err)
	}

	// A ForestPeeler(3, n), an MSFWeightSketch(3, n) and a Graph(3n) all
	// run one engine over 3n nodes with the same user seed; the structure
	// kind alone must keep their checkpoints apart.
	m3, err := graphzeppelin.NewMSFWeightSketch(3, 16, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	g3, err := graphzeppelin.New(48, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	same := map[string]graphzeppelin.StreamSketch{"ForestPeeler(3,16)": p3, "MSFWeightSketch(3,16)": m3, "Graph(48)": g3}
	ckpts := map[string][]byte{}
	for name, sk := range same {
		var buf bytes.Buffer
		if err := sk.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ckpts[name] = buf.Bytes()
	}
	for into, sk := range same {
		for from, ckpt := range ckpts {
			if from == into {
				continue
			}
			if err := sk.MergeCheckpoint(bytes.NewReader(ckpt)); !errors.Is(err, graphzeppelin.ErrIncompatibleCheckpoint) {
				t.Fatalf("%s merging a %s checkpoint: error = %v, want ErrIncompatibleCheckpoint", into, from, err)
			}
		}
	}
}

// TestExtensionsOutOfCore runs every extension with its sketches on disk:
// the layers share one engine, hence one store file, and the answers
// must match the exact model after an explicit Flush.
func TestExtensionsOutOfCore(t *testing.T) {
	const n = 32
	disk := func() graphzeppelin.Option { return graphzeppelin.WithSketchesOnDisk(t.TempDir()) }
	// An 8-cycle, a triangle hanging off it and one deleted chord.
	var ups []graphzeppelin.Update
	for u := uint32(0); u < 8; u++ {
		ups = append(ups, graphzeppelin.Update{Edge: graphzeppelin.Edge{U: u, V: (u + 1) % 8}, Type: graphzeppelin.Insert})
	}
	for _, e := range [][2]uint32{{7, 10}, {10, 11}, {11, 7}, {0, 4}} {
		ups = append(ups, graphzeppelin.Update{Edge: graphzeppelin.Edge{U: e[0], V: e[1]}, Type: graphzeppelin.Insert})
	}
	ups = append(ups, graphzeppelin.Update{Edge: graphzeppelin.Edge{U: 0, V: 4}, Type: graphzeppelin.Delete})

	ingest := func(t *testing.T, sk graphzeppelin.StreamSketch) {
		t.Helper()
		if err := sk.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		if err := sk.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("bipartite", func(t *testing.T) {
		bt, err := graphzeppelin.NewBipartiteTester(n, graphzeppelin.WithSeed(61), disk())
		if err != nil {
			t.Fatal(err)
		}
		defer bt.Close()
		ingest(t, bt)
		if bip, err := bt.IsBipartite(); err != nil || bip {
			t.Fatalf("IsBipartite = %v, %v; want false (triangle)", bip, err)
		}
	})
	t.Run("kforests", func(t *testing.T) {
		p, err := graphzeppelin.NewForestPeeler(3, n, graphzeppelin.WithSeed(62), disk())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ingest(t, p)
		if lambda, err := p.EdgeConnectivity(); err != nil || lambda != 2 {
			t.Fatalf("EdgeConnectivity = %d, %v; want 2 (two cycles sharing node 7)", lambda, err)
		}
	})
	t.Run("msf", func(t *testing.T) {
		m, err := graphzeppelin.NewMSFWeightSketch(4, n, graphzeppelin.WithSeed(63), disk())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ingest(t, m) // weight 1 each: 10 nodes in one tree → 9
		for _, e := range [][3]int{{20, 21, 3}, {21, 22, 2}, {20, 22, 4}} {
			if err := m.Insert(uint32(e[0]), uint32(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		if w, err := m.Weight(); err != nil || w != 9+3+2 {
			t.Fatalf("Weight = %d, %v; want 14", w, err)
		}
	})
}

// TestOpenCheckpointPublic exercises the parallel file restore through the
// public API.
func TestOpenCheckpointPublic(t *testing.T) {
	g, err := graphzeppelin.New(64, graphzeppelin.WithSeed(9), graphzeppelin.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 63; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "g.gze3")
	if err := g.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	back, err := graphzeppelin.OpenCheckpoint(path, graphzeppelin.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	_, count, err := back.ConnectedComponents()
	if err != nil || count != 1 {
		t.Fatalf("restored graph: count = %d, err = %v", count, err)
	}
}

// gatedSink blocks every write until released; it lets a test hold a
// checkpoint stream open while probing what else can run.
type gatedSink struct {
	buf     bytes.Buffer
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func newGatedSink() *gatedSink {
	return &gatedSink{gate: make(chan struct{}), started: make(chan struct{})}
}

func (g *gatedSink) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.buf.Write(p)
}

// TestExtensionCheckpointSingleCutAcrossLayers pins that an extension's
// checkpoint is one consistent cut across the structure's layers: the
// BipartiteTester holds a triangle (non-bipartite), a checkpoint stream
// is blocked on a gated writer, and an update that deletes a triangle
// edge completes mid-stream (low stall holds for extensions too). Both the
// base graph AND its double cover must capture the pre-delete state — a
// per-layer seal taken at each layer's stream time would put the delete
// inside the cover's snapshot but outside the base's, breaking the
// cc(D(G)) = 2·cc(G) identity the merged query depends on.
func TestExtensionCheckpointSingleCutAcrossLayers(t *testing.T) {
	const n = 8
	mk := func() *graphzeppelin.BipartiteTester {
		bt, err := graphzeppelin.NewBipartiteTester(n, graphzeppelin.WithSeed(55))
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	live := mk()
	defer live.Close()
	for _, e := range []graphzeppelin.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}} {
		if err := live.Apply(graphzeppelin.Update{Edge: e, Type: graphzeppelin.Insert}); err != nil {
			t.Fatal(err)
		}
	}

	gw := newGatedSink()
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- live.WriteCheckpoint(gw) }()
	<-gw.started // every layer is sealed once the first byte is out

	// Delete a triangle edge while the stream is blocked: must complete
	// (the seal window is over) and must land in NEITHER layer's snapshot.
	applied := make(chan error, 1)
	go func() {
		applied <- live.Apply(graphzeppelin.Update{
			Edge: graphzeppelin.Edge{U: 0, V: 2}, Type: graphzeppelin.Delete,
		})
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group ingest blocked for the duration of the checkpoint stream write")
	}
	close(gw.gate)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}

	// The container holds the full pre-delete triangle in both layers:
	// merged into a quiet tester it must answer non-bipartite, and after
	// replaying the delete, bipartite — exactly like the live structure.
	probe := mk()
	defer probe.Close()
	if err := probe.MergeCheckpoint(bytes.NewReader(gw.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if bip, err := probe.IsBipartite(); err != nil || bip {
		t.Fatalf("merged pre-delete cut: IsBipartite = %v, %v; want false (triangle)", bip, err)
	}
	if err := probe.Apply(graphzeppelin.Update{
		Edge: graphzeppelin.Edge{U: 0, V: 2}, Type: graphzeppelin.Delete,
	}); err != nil {
		t.Fatal(err)
	}
	if bip, err := probe.IsBipartite(); err != nil || !bip {
		t.Fatalf("after replaying delete: IsBipartite = %v, %v; want true (path)", bip, err)
	}
	if bip, err := live.IsBipartite(); err != nil || !bip {
		t.Fatalf("live structure after delete: IsBipartite = %v, %v; want true", bip, err)
	}
}

// TestBipartiteQueryIsOneCutUnderProducers queries a BipartiteTester while
// producers stream edges of a planted bipartition into it. Every subset
// of those edges is bipartite, so every answer must be true: the graph
// and its double cover are answered from one cut, never from two cuts a
// batch apart.
func TestBipartiteQueryIsOneCutUnderProducers(t *testing.T) {
	const n, producers, batches = 64, 4, 50
	bt, err := graphzeppelin.NewBipartiteTester(n, graphzeppelin.WithSeed(71), graphzeppelin.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var wg sync.WaitGroup
	errc := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ups := make([]graphzeppelin.Update, 8)
				for i := range ups {
					u := uint32(2 * ((p*batches*8 + b*8 + i) % (n / 2)))
					v := uint32(2*((p+b+3*i)%(n/2)) + 1)
					ups[i] = graphzeppelin.Update{Edge: graphzeppelin.Edge{U: u, V: v}, Type: graphzeppelin.Insert}
				}
				if err := bt.ApplyBatch(ups); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for queries := 0; ; queries++ {
		bip, err := bt.IsBipartite()
		if err != nil {
			t.Fatal(err)
		}
		if !bip {
			t.Fatalf("query %d answered non-bipartite over a planted bipartite stream", queries)
		}
		select {
		case <-done:
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
