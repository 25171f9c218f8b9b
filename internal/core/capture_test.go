package core

import (
	"bytes"
	"testing"

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

// TestCaptureSharedImage changes two nodes first after both a cached
// query's cut and a live seal's, in both stores: for each, the baseline and
// the seal share one buffer, the checkpoint is the seal-time cut byte for
// byte, and the next query, a delta one, equals the exact components.
func TestCaptureSharedImage(t *testing.T) {
	for _, store := range checkpointStores {
		t.Run(store.name, func(t *testing.T) {
			const n = 64
			cfg := Config{NumNodes: n, Seed: 113, Shards: 2, Buffering: BufferNone, SketchesOnDisk: store.disk}
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
			extra := stream.Edge{U: 5, V: 40}
			mustUpdate(t, e, extra.U, extra.V)
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			c := &e.capture
			c.mu.Lock()
			for _, v := range []uint32{extra.U, extra.V} {
				img := c.base[v]
				if img == nil || !sameBuf(img, c.sealed.Load().images[v]) {
					c.mu.Unlock()
					t.Fatalf("node %d: the baseline and the seal do not share one image", v)
				}
			}
			bufs := c.bufs
			c.mu.Unlock()
			if bufs != 2 {
				t.Fatalf("%d buffers for two nodes' images, want 2", bufs)
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
}
