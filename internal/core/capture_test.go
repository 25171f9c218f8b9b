package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// TestCaptureImagesInMemoryBytes pins that Stats.MemoryBytes counts every
// image the capture holds, a live seal's among them, in both stores: with
// a full checkpoint sealed and its stream not yet run, changes ahead of
// the scan hold seal images, and MemoryBytes less the write-back cache is
// at least its value before the seal plus their bytes.
func TestCaptureImagesInMemoryBytes(t *testing.T) {
	for _, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			const n = 256
			cfg := Config{NumNodes: n, Seed: 109, Shards: 2, SketchesOnDisk: store.disk}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			base := randomEdges(n, 1000, 109, 1)
			if err := e.InsertEdges(base); err != nil {
				t.Fatal(err)
			}
			rest := func() int64 {
				t.Helper()
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				st := e.Stats()
				return st.MemoryBytes - st.SketchCache.CachedBytes
			}
			idle := rest()
			cs, err := e.SealCheckpointSince(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			if err := e.InsertEdges(randomEdges(n, 40, 109, 2)); err != nil {
				t.Fatal(err)
			}
			held := rest()
			images := sealImages(e)
			if images == 0 {
				t.Fatal("no seal image held: the changes did not race the scan")
			}
			if want := idle + int64(images*e.slotSize); held < want {
				t.Fatalf("MemoryBytes less the cache = %d with %d seal images held, want >= %d (%d idle)", held, images, want, idle)
			}
			var buf bytes.Buffer
			if err := cs.StreamTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpointSlots(t, buf.Bytes()), referenceSlots(t, cfg, base)) {
				t.Fatal("the checkpoint is not the seal-time cut")
			}
		})
	}
}

// TestCaptureOwnBuffers changes two nodes first after both a cached
// query's cut and a live seal's, in both stores, each reader holding its
// own buffer. One edge's batch is logged by the baseline and imaged by
// the seal: two buffers. A batch past the log's cap gives the baseline an
// image of its own beside the seal's, equal to it byte for byte: four. In
// both cases the checkpoint is the seal-time cut byte for byte, and the
// next query, a delta one, equals the exact components.
func TestCaptureOwnBuffers(t *testing.T) {
	for _, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			for _, pastCap := range []bool{false, true} {
				name := "logged"
				if pastCap {
					name = "past-cap"
				}
				t.Run(name, func(t *testing.T) {
					const n = 64
					cfg := Config{NumNodes: n, Seed: 113, Shards: 2, SketchesOnDisk: store.disk}
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					var path []stream.Edge
					for u := uint32(0); u+1 < n/2; u++ {
						path = append(path, stream.Edge{U: u, V: u + 1})
					}
					if err := e.InsertEdges(path); err != nil {
						t.Fatal(err)
					}
					checkAgainstExact(t, e, n, path) // the baseline's cut
					cs, err := e.SealCheckpointSince(0)
					if err != nil {
						t.Fatal(err)
					}
					defer cs.Close()
					c := &e.capture
					// An odd number of toggles leaves the edge in; past the cap,
					// each endpoint's one batch holds them all.
					extra, toggles, wantBufs := stream.Edge{U: 5, V: 40}, 1, 2
					if pastCap {
						toggles, wantBufs = c.logCap+1|1, 4
					}
					for range toggles {
						mustUpdate(t, e, extra.U, extra.V)
					}
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
					c.mu.Lock()
					for _, v := range []uint32{extra.U, extra.V} {
						img, seal := c.base[v], c.sealed.Load().images[v]
						switch {
						case seal == nil:
							t.Errorf("node %d: the seal holds no image", v)
						case !pastCap && (c.logs[v] == nil || img != nil):
							t.Errorf("node %d: the baseline holds a log %v and an image %v, want the log alone", v, c.logs[v] != nil, img != nil)
						case pastCap && (c.logs[v] != nil || img == nil):
							t.Errorf("node %d: the baseline holds a log %v and an image %v, want the image alone", v, c.logs[v] != nil, img != nil)
						case pastCap && sameBuf(img, seal):
							t.Errorf("node %d: the baseline and the seal share one buffer", v)
						case pastCap && !bytes.Equal(img, seal):
							t.Errorf("node %d: the baseline's image is not the seal's bytes", v)
						}
					}
					bufs := c.bufs
					c.mu.Unlock()
					if t.Failed() {
						t.FailNow()
					}
					if bufs != wantBufs {
						t.Fatalf("%d buffers for two nodes, want %d", bufs, wantBufs)
					}
					var buf bytes.Buffer
					if err := cs.StreamTo(&buf); err != nil {
						t.Fatal(err)
					}
					cs.Close()
					if !bytes.Equal(checkpointSlots(t, buf.Bytes()), referenceSlots(t, cfg, path)) {
						t.Fatal("the checkpoint is not the seal-time cut")
					}
					deltas := e.Stats().DeltaQueries
					checkAgainstExact(t, e, n, append(path, extra))
					if got := e.Stats().DeltaQueries; got != deltas+1 {
						t.Fatalf("DeltaQueries %d -> %d: the query after the seal did not take the delta path", deltas, got)
					}
				})
			}
		})
	}
}

// TestCaptureListsNoNodeWithoutEntry drives, in both stores, every change
// at which the baseline cannot keep an entry for a node it lists: a first
// change whose entry does not fit the budget (a budget of 0), a logged
// node's conversion into an image past the budget, and a failed apply. Each must overflow the baseline; between them every listed node
// holds exactly one entry, a log or an image; and the query after each
// overflow runs from scratch and is exact. Out of core the apply fails on
// a read fault of the device (oneFault); in RAM, where no device can
// fail, the change runs with a store apply that does.
func TestCaptureListsNoNodeWithoutEntry(t *testing.T) {
	const n = 64
	for _, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			dev := &oneFault{Device: iomodel.NewMem(4096)}
			cfg := Config{NumNodes: n, Seed: 127, Shards: 2, NodesPerGroup: 4}
			if store.disk {
				// One group per shard resident: the failed apply's group is
				// read off the device.
				cfg.SketchesOnDisk, cfg.CacheBytes = true, 1
				cfg.DeviceFactory = func(string) (iomodel.Device, error) { return dev, nil }
			}
			e := pathEngine(t, cfg, n-1)
			defer e.Close()
			c, edges := &e.capture, pathEdges(n)
			roomy := n * e.slotSize // room for an image per node, in both stores
			c.budget = roomy
			checkAgainstExact(t, e, n, edges)
			toggle := func(u, v uint32) {
				t.Helper()
				mustUpdate(t, e, u, v)
				if i := slices.Index(edges, stream.Edge{U: u, V: v}); i >= 0 {
					edges = slices.Delete(edges, i, i+1)
				} else {
					edges = append(edges, stream.Edge{U: u, V: v})
				}
			}
			// entries fails t unless the baseline's overflow is over and,
			// while it has not overflowed, every node it lists holds
			// exactly one entry. The caller has drained.
			entries := func(step string, over bool) {
				t.Helper()
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.baseOver.Load() != over {
					t.Fatalf("%s: baseline overflowed %v, want %v", step, c.baseOver.Load(), over)
				}
				for _, v := range c.baseNodes {
					if log, img := c.logs[v] != nil, c.base[v] != nil; !over && log == img {
						t.Fatalf("%s: node %d is listed with a log %v and an image %v", step, v, log, img)
					}
				}
			}
			drain := func() {
				t.Helper()
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			fallsBack := func(step string) {
				t.Helper()
				before := e.Stats()
				checkAgainstExact(t, e, n, edges)
				if after := e.Stats(); after.DeltaFallbacks != before.DeltaFallbacks+1 || after.DeltaQueries != before.DeltaQueries {
					t.Fatalf("%s: %d delta queries and %d fallbacks, want none and one", step,
						after.DeltaQueries-before.DeltaQueries, after.DeltaFallbacks-before.DeltaFallbacks)
				}
			}

			// A first change with no room for an entry.
			c.budget = 0
			toggle(3, 40)
			drain()
			entries("a first change past the budget", true)
			fallsBack("the query after it")
			// The same change left in the gutters: the query's own apply of
			// its batch overflows the baseline after the query counted the
			// dirty nodes, and the query still runs from scratch.
			toggle(3, 40)
			fallsBack("a query applying a leftover batch past the budget")
			c.budget = roomy

			// A trickle logs its two nodes; the budget then holds their logs
			// filled to the cap and no image, and a gutter of toggles of
			// their edge pushes both past the cap.
			toggle(0, 9)
			drain()
			entries("a trickle", false)
			c.budget = 16 * c.logCap
			for i := 0; i < c.logCap; i++ {
				toggle(0, 9)
			}
			drain()
			entries("a conversion past the budget", true)
			fallsBack("the query after it")
			c.budget = roomy

			// A trickle, then a failed apply at a clean node.
			toggle(5, 30)
			drain()
			entries("a trickle", false)
			if store.disk {
				dev.arm(false, 0)
				if err := e.InsertEdge(17, 45); err != nil && !errors.Is(err, iomodel.ErrInjected) {
					t.Fatal(err)
				}
				if err := e.Drain(); !errors.Is(err, iomodel.ErrInjected) {
					t.Fatalf("the apply at node 17 or 45 returned %v, want the injected read fault", err)
				}
				entries("a failed apply", true)
				return // the engine is poisoned
			}
			e.quiesce.Lock()
			err := e.change(e.ownerOf(17), gutter.Batch{Node: 17, Others: []uint32{45}}, func(uint32, []uint64, []byte) error {
				return iomodel.ErrInjected
			})
			e.quiesce.Unlock()
			if !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("the failing apply returned %v", err)
			}
			entries("a failed apply", true)
			fallsBack("the query after it")
		})
	}
}
