package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// This file pins the I/O cost model of the tiered out-of-core store: the
// grouped-flush bound on ingest block I/Os, zero-I/O cache hits, the
// DiskBytes accounting contract, and cache coherence under concurrency.

// memFactory builds accounting in-memory devices with the given block size.
func memFactory(block int) func(string) (iomodel.Device, error) {
	return func(string) (iomodel.Device, error) {
		return iomodel.NewMem(block), nil
	}
}

// ingestKron drives a kron stream through an engine passes times (odd
// pass counts preserve the final toggle parity) and drains it, returning
// the engine plus the ingest-only sketch I/O delta (construction-time
// slot initialization excluded). The caller closes the engine.
func ingestKron(t *testing.T, cfg Config, res kron.Result, passes int) (*Engine, iomodel.Stats) {
	t.Helper()
	cfg.NumNodes = res.NumNodes
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().SketchIO
	for p := 0; p < passes; p++ {
		for _, u := range res.Updates {
			if err := e.Update(u); err != nil {
				e.Close()
				t.Fatal(err)
			}
		}
		// Drain every pass: each pass emits at least one batch per node,
		// so multi-pass runs exercise repeated batches per group.
		if err := e.Drain(); err != nil {
			e.Close()
			t.Fatal(err)
		}
	}
	after := e.Stats().SketchIO
	return e, iomodel.Stats{
		ReadOps:     after.ReadOps - before.ReadOps,
		WriteOps:    after.WriteOps - before.WriteOps,
		ReadBlocks:  after.ReadBlocks - before.ReadBlocks,
		WriteBlocks: after.WriteBlocks - before.WriteBlocks,
	}
}

// TestStatsDiskBytes pins the Stats.DiskBytes contract across placements:
// zero in RAM mode, the sketch-store footprint on disk, and sketch store
// plus gutter-tree region in the hybrid (disk + tree-buffered) mode — the
// "sketch slots + gutter tree" the field's doc comment promises.
func TestStatsDiskBytes(t *testing.T) {
	const n = 64
	build := func(cfg Config) *Engine {
		cfg.NumNodes = n
		cfg.Seed = 81
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustUpdate(t, e, 1, 2)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	ram := build(Config{})
	defer ram.Close()
	if got := ram.Stats().DiskBytes; got != 0 {
		t.Fatalf("RAM-mode DiskBytes = %d, want 0", got)
	}

	disk := build(Config{SketchesOnDisk: true})
	defer disk.Close()
	if got, want := disk.Stats().DiskBytes, deviceOf(disk).store.TotalBytes(); got != want {
		t.Fatalf("disk-mode DiskBytes = %d, want sketch store %d", got, want)
	}

	hybrid := build(Config{SketchesOnDisk: true, Buffering: BufferTree})
	defer hybrid.Close()
	wantHybrid := deviceOf(hybrid).store.TotalBytes() + hybrid.tree.TotalBytes()
	if got := hybrid.Stats().DiskBytes; got != wantHybrid {
		t.Fatalf("hybrid DiskBytes = %d, want store %d + tree %d = %d",
			got, deviceOf(hybrid).store.TotalBytes(), hybrid.tree.TotalBytes(), wantHybrid)
	}
	if hybrid.tree.TotalBytes() == 0 {
		t.Fatal("gutter tree reports a zero footprint")
	}

	// RAM-buffered tree (no disk sketches) still counts the tree region.
	treeOnly := build(Config{Buffering: BufferTree})
	defer treeOnly.Close()
	if got, want := treeOnly.Stats().DiskBytes, treeOnly.tree.TotalBytes(); got != want {
		t.Fatalf("tree-buffered DiskBytes = %d, want tree region %d", got, want)
	}
}

// TestGroupedFlushIOBound is the acceptance regression for the tiered
// store: on a kron stream, ingest block I/Os through the grouped
// write-back cache must land far below what a per-slot read–modify–write
// of every batch would pay, at equal correctness (the recovered partition
// matches a RAM-mode engine over the same stream).
func TestGroupedFlushIOBound(t *testing.T) {
	const scale = 7
	const passes = 3 // odd: the net toggle parity equals one pass
	const block = 16 * 1024
	edges := kron.DenseKronecker(scale, 31)
	res := kron.ToStream(edges, 1<<scale, kron.StreamOptions{}, 32)

	tiered := Config{Seed: 83, SketchesOnDisk: true, DeviceFactory: memFactory(block)}
	cached, cachedIO := ingestKron(t, tiered, res, passes)
	defer cached.Close()
	cst := cached.Stats()

	if cst.Batches == 0 {
		t.Fatal("no batches applied")
	}
	// A per-slot read–modify–write pays a slot read + slot write per batch,
	// every pass: at least 2·⌈slot/B⌉ blocks each. The tiered store pays
	// one group fill per residency and nothing at steady state (the whole
	// store fits the default cache), so its ingest I/O is bounded by the
	// grouped-fill term, not by the batch count. "Measurably fewer" is
	// pinned at 3x that lower bound; the gap grows with every extra pass.
	perSlot := 2 * cst.Batches * uint64((cached.slotSize+block-1)/block)
	if cachedIO.TotalBlocks()*3 > perSlot {
		t.Fatalf("tiered ingest used %d blocks for %d batches; a per-slot round trip of each costs at least %d: less than the required 3x drop",
			cachedIO.TotalBlocks(), cst.Batches, perSlot)
	}
	if cst.SketchCache.Hits == 0 {
		t.Fatal("tiered ingest recorded no cache hits")
	}
	// With no evictions, ingest reads are bounded by one fill per group.
	if groups := deviceOf(cached).store.NumGroups(); cachedIO.ReadOps > uint64(groups) {
		t.Fatalf("tiered ingest issued %d read ops for %d groups; want at most one fill per group",
			cachedIO.ReadOps, groups)
	}

	// Equal correctness: both placements recover the exact partition.
	ramRef, _ := ingestKron(t, Config{Seed: 83}, res, passes)
	defer ramRef.Close()
	checkAgainstExact(t, ramRef, res.NumNodes, res.FinalEdges)
	checkAgainstExact(t, cached, res.NumNodes, res.FinalEdges)
}

// TestCacheHitZeroIO pins the hot-group contract: once a node group is
// resident, further batches against it cost zero device I/O, no matter
// how many times they recur.
func TestCacheHitZeroIO(t *testing.T) {
	const n = 32
	e, err := NewEngine(Config{
		NumNodes:       n,
		Seed:           85,
		SketchesOnDisk: true,
		DeviceFactory:  memFactory(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	touch := func() {
		var ups []stream.Update
		for u := uint32(0); u+1 < n; u++ {
			ups = append(ups, stream.Update{Edge: stream.Edge{U: u, V: u + 1}, Type: stream.Insert})
		}
		if err := e.UpdateBatch(ups); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	touch() // first pass: fills fault every touched group in
	st1 := e.Stats()
	for i := 0; i < 5; i++ {
		touch() // repeated touches of resident groups
	}
	st2 := e.Stats()
	if st2.SketchIO.ReadOps != st1.SketchIO.ReadOps || st2.SketchIO.WriteOps != st1.SketchIO.WriteOps {
		t.Fatalf("repeated touches of resident groups performed I/O: %d new reads, %d new writes",
			st2.SketchIO.ReadOps-st1.SketchIO.ReadOps, st2.SketchIO.WriteOps-st1.SketchIO.WriteOps)
	}
	if st2.SketchCache.Hits <= st1.SketchCache.Hits {
		t.Fatal("repeated touches recorded no cache hits")
	}
	if st2.SketchCache.Misses != st1.SketchCache.Misses {
		t.Fatalf("repeated touches missed the cache %d times", st2.SketchCache.Misses-st1.SketchCache.Misses)
	}
}

// TestCacheCoherenceConcurrent stresses the tiered store's coherence
// story under -race: concurrent producers hammer a deliberately tiny
// cache (constant eviction write-backs) while checkpoints stream
// mid-ingest, and every restored cut plus the final live query must
// recover the base partition. Producers toggle insert+delete pairs inside
// one connected component, so any prefix cut is partition-equivalent.
func TestCacheCoherenceConcurrent(t *testing.T) {
	const n = 96
	e, err := NewEngine(Config{
		NumNodes:       n,
		Seed:           87,
		Shards:         2,
		SketchesOnDisk: true,
		CacheBytes:     1, // floor: one resident group per cache shard
		NodesPerGroup:  4,
		BufferFactor:   0.01,
		DeviceFactory:  memFactory(4096),
	})
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
			rng := uint64(p)*0x9e3779b97f4a7c15 + 7
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// Toggle chords only (v >= u+2): toggling a base path
				// edge would make a mid-pair snapshot cut genuinely
				// disconnected, which is not the property under test.
				u := uint32(rng) % (n - 2)
				v := u + 2 + uint32(rng>>32)%(n-2-u)
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
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	checkAgainstExact(t, e, n, base)
	if ev := e.Stats().SketchCache.Evictions; ev == 0 {
		t.Fatal("tiny cache recorded no evictions; the test did not stress write-backs")
	}
}

// TestGroupedEngineMatchesExact sweeps group sizes and cache budgets on a
// random toggle stream, pinning that the tiered store's answer never
// depends on the I/O knobs.
func TestGroupedEngineMatchesExact(t *testing.T) {
	const n = 48
	var edges []stream.Edge
	present := map[stream.Edge]bool{}
	rng := uint64(0xabcdef987)
	var stream1 []stream.Edge
	for i := 0; i < 700; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		u, v := uint32(rng)%n, uint32(rng>>32)%n
		if u == v {
			continue
		}
		eg := stream.Edge{U: u, V: v}.Normalize()
		present[eg] = !present[eg]
		stream1 = append(stream1, eg)
	}
	for eg, on := range present {
		if on {
			edges = append(edges, eg)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"npg1-tiny-cache", Config{NodesPerGroup: 1, CacheBytes: 1}},
		{"npg4-tiny-cache", Config{NodesPerGroup: 4, CacheBytes: 1}},
		{"npg7-default-cache", Config{NodesPerGroup: 7}},
		{"npg64-one-group", Config{NodesPerGroup: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NumNodes = n
			cfg.Seed = 89
			cfg.Shards = 2
			cfg.SketchesOnDisk = true
			cfg.DeviceFactory = memFactory(1024)
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, eg := range stream1 {
				mustUpdate(t, e, eg.U, eg.V)
			}
			checkAgainstExact(t, e, n, edges)
		})
	}
}

// accessLog is a device that records the byte range of every access.
type accessLog struct {
	iomodel.Device
	mu            sync.Mutex
	reads, writes [][2]int64
}

func (d *accessLog) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.reads = append(d.reads, [2]int64{off, off + int64(len(p))})
	d.mu.Unlock()
	return d.Device.ReadAt(p, off)
}

func (d *accessLog) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.writes = append(d.writes, [2]int64{off, off + int64(len(p))})
	d.mu.Unlock()
	return d.Device.WriteAt(p, off)
}

// take returns the accesses recorded since the last take and forgets them.
func (d *accessLog) take() (reads, writes [][2]int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	reads, writes = d.reads, d.writes
	d.reads, d.writes = nil, nil
	return reads, writes
}

// TestFusedColdQueryIO pins what an out-of-core from-scratch query costs
// the device when the gutters still hold updates. Its pass is its drain:
// it reads each group that is not resident once, in runs of sequential
// chunks, and applies the leftover batches there, writing back one span per
// chunk — from the first slot a leftover batch changed to the last — right
// after reading it; the leftover batches of resident groups apply in the
// cache. So the reads are exactly the non-resident groups' bytes, the
// query faults no group into the cache, and the writes cover only slots
// with leftover batches (and the slots between two of them in one chunk).
// A plain drain would first fault nearly every group through the cache,
// evicting and writing back as it went, and the pass would then read the
// non-resident ones again.
func TestFusedColdQueryIO(t *testing.T) {
	const (
		n     = 128
		npg   = 4
		block = 4096
	)
	geometry, _ := Config{NumNodes: n}.withDefaults()
	groupBytes := cubesketch.NewSlab(npg, geometry.VectorLen(), geometry.Columns, make([]uint64, geometry.Rounds)).Bytes()
	var dev *accessLog
	e, err := NewEngine(Config{
		NumNodes: n, Seed: 67, Shards: 1, SketchesOnDisk: true, NodesPerGroup: npg,
		// Eight resident groups, and gutters that hold the whole stream.
		CacheBytes: 8 * int64(groupBytes),
		DeviceFactory: func(string) (iomodel.Device, error) {
			dev = &accessLog{Device: iomodel.NewMem(block)}
			return dev, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ds := deviceOf(e)
	var all []stream.Edge
	insert := func(edges ...stream.Edge) {
		t.Helper()
		if err := e.InsertEdges(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
	}
	insert(randomEdges(n, 200, 67, 68)...)
	if _, _, err := e.ConnectedComponents(); err != nil { // the baseline the slice's query falls back from
		t.Fatal(err)
	}
	// Make groups 0, 1, 5, 6 and 30 the resident ones: one edge inside each,
	// drained through the workers into an emptied cache.
	evictAll(t, e)
	resident := []int{0, 1, 5, 6, 30}
	for _, g := range resident {
		insert(stream.Edge{U: uint32(g*npg + 1), V: uint32(g*npg + 3)})
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// The slice: a path over leftover nodes in resident and non-resident
	// groups alike, far more than the delta path accepts.
	left := []uint32{2, 5, 21, 22, 29, 40, 41, 43, 60, 77, 90, 91, 100, 110, 121, 127}
	for i := 0; i+1 < len(left); i++ {
		insert(stream.Edge{U: left[i], V: left[i+1]})
	}
	e.pending.Wait() // the query's accesses alone are recorded below
	for _, g := range resident {
		if _, ok := ds.cache.Peek(g); !ok {
			t.Fatalf("group %d is not resident", g)
		}
	}
	dev.take()
	before := e.Stats()
	checkAgainstExact(t, e, n, toggled(all))
	after := e.Stats()
	reads, writes := dev.take()

	if d := after.DeltaFallbacks - before.DeltaFallbacks; d != 1 {
		t.Fatalf("the slice's query counted %d delta fallbacks, want 1", d)
	}
	if m := after.SketchCache.Misses - before.SketchCache.Misses; m != 0 {
		t.Fatalf("the query faulted %d groups into the cache", m)
	}
	// What the pass should do: the runs of non-resident groups, cut into
	// chunks, each read and then written back over its leftover span.
	slot := int64(e.slotSize)
	var wantReads, wantWrites [][2]int64
	isResident := func(g int) bool { return slices.Contains(resident, g) }
	for g := 0; g < n/npg; {
		if isResident(g) {
			g++
			continue
		}
		end := g
		for end < n/npg && !isResident(end) {
			end++
		}
		for lo := g * npg; lo < end*npg; lo += ds.chunk {
			hi := min(lo+ds.chunk, end*npg)
			wantReads = append(wantReads, [2]int64{int64(lo) * slot, int64(hi) * slot})
			first, last := -1, -1
			for _, v := range left {
				if int(v) >= lo && int(v) < hi {
					if first < 0 {
						first = int(v)
					}
					last = int(v)
				}
			}
			if last >= 0 {
				wantWrites = append(wantWrites, [2]int64{int64(first) * slot, int64(last+1) * slot})
			}
		}
		g = end
	}
	if !slices.Equal(reads, wantReads) {
		t.Fatalf("the query read %v; want the non-resident groups' bytes once, %v", reads, wantReads)
	}
	if !slices.Equal(writes, wantWrites) {
		t.Fatalf("the query wrote %v; want each chunk's leftover span, %v", writes, wantWrites)
	}
	spanned := func(accesses [][2]int64) (blocks uint64) {
		for _, a := range accesses {
			blocks += uint64((a[1]-1)/block - a[0]/block + 1)
		}
		return blocks
	}
	if got, want := after.SketchIO.ReadBlocks-before.SketchIO.ReadBlocks, spanned(wantReads); got != want {
		t.Fatalf("the query read %d blocks, the non-resident groups span %d", got, want)
	}
	if got, want := after.SketchIO.WriteBlocks-before.SketchIO.WriteBlocks, spanned(wantWrites); got != want {
		t.Fatalf("the query wrote %d blocks, its leftover spans span %d", got, want)
	}
}

// toggled returns the edges that a stream of toggles leaves present.
func toggled(toggles []stream.Edge) []stream.Edge {
	on := map[stream.Edge]bool{}
	for _, eg := range toggles {
		on[eg.Normalize()] = !on[eg.Normalize()]
	}
	var edges []stream.Edge
	for eg, present := range on {
		if present {
			edges = append(edges, eg)
		}
	}
	return edges
}
