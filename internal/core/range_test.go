package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"graphzeppelin/internal/stream"
)

// rangeSplit returns, for each of the ranges, the updates a cluster routes
// to its owner: those with at least one endpoint inside.
func rangeSplit(ups []stream.Update, ranges []NodeRange) [][]stream.Update {
	out := make([][]stream.Update, len(ranges))
	for i, r := range ranges {
		for _, u := range ups {
			if in := func(v uint32) bool { return v >= r.Lo && v < r.Hi }; in(u.Edge.U) || in(u.Edge.V) {
				out[i] = append(out[i], u)
			}
		}
	}
	return out
}

// loadRange opens r as range [lo, hi) of e and loads its body.
func loadRange(e *Engine, r io.Reader, lo, hi uint32) (*Checkpoint, error) {
	cp, err := e.ReadRange(r, lo, hi)
	if err != nil {
		return nil, err
	}
	return cp, cp.Load()
}

// fullCheckpoint seals and streams e's full checkpoint.
func fullCheckpoint(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRangeEnginesConcatenateToUniverse pins the node-ownership contract:
// engines over the ranges of a partition, each fed the updates touching
// its range, hold byte for byte the slots a universe engine fed the whole
// stream holds for those ranges — so a universe view restored from their
// full checkpoints, then advanced by their deltas, checkpoints the same
// sketch bytes as the universe engine, in RAM and out of core. Their
// update counts sum to the stream length, and their memory is their
// range's.
func TestRangeEnginesConcatenateToUniverse(t *testing.T) {
	const numNodes = 150
	ranges := []NodeRange{{0, 50}, {50, 100}, {100, 150}}
	for _, disk := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "disk"}[disk], func(t *testing.T) {
			base := Config{NumNodes: numNodes, Seed: 41, Shards: 2, SketchesOnDisk: disk, NodesPerGroup: 4}
			uni, err := NewEngine(base)
			if err != nil {
				t.Fatal(err)
			}
			defer uni.Close()
			parts := make([]*Engine, len(ranges))
			for i, r := range ranges {
				cfg := base
				cfg.Range = r
				if parts[i], err = NewEngine(cfg); err != nil {
					t.Fatal(err)
				}
				defer parts[i].Close()
			}
			rng := rand.New(rand.NewSource(3))
			ingest := func(ups []stream.Update) {
				t.Helper()
				if err := uni.UpdateBatch(ups); err != nil {
					t.Fatal(err)
				}
				for i, sub := range rangeSplit(ups, ranges) {
					if err := parts[i].UpdateBatch(sub); err != nil {
						t.Fatal(err)
					}
				}
			}
			ups := deltaTestUpdates(rng, numNodes, 3000)
			ingest(ups)

			var counted uint64
			for _, p := range parts {
				counted += p.Stats().Updates
			}
			if counted != uint64(len(ups)) {
				t.Fatalf("range engines count %d updates, the stream holds %d", counted, len(ups))
			}
			if !disk {
				ref := uni.Stats().MemoryBytes
				for i, p := range parts {
					n := int64(ranges[i].Hi - ranges[i].Lo)
					if m := p.Stats().MemoryBytes; m <= 0 || m*numNodes > ref*n {
						t.Fatalf("range %v holds %d bytes, more than its share of the universe's %d", ranges[i], m, ref)
					}
				}
			}
			if _, _, err := parts[1].ConnectedComponents(); !errors.Is(err, ErrRangeEngine) {
				t.Fatalf("query on a range engine: %v, want ErrRangeEngine", err)
			}

			view, err := NewEngine(Config{NumNodes: numNodes, Seed: 41, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer view.Close()
			ids := make([]uint64, len(parts))
			for i, p := range parts {
				cs, err := p.SealCheckpointSince(0)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				err = cs.StreamTo(&buf)
				ids[i] = cs.ID()
				cs.Close()
				if err != nil {
					t.Fatal(err)
				}
				cp, err := view.ReadRange(&buf, ranges[i].Lo, ranges[i].Hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := view.Install(cp); err != nil {
					t.Fatal(err)
				}
			}
			want := checkpointSlots(t, fullCheckpoint(t, uni))
			if got := checkpointSlots(t, fullCheckpoint(t, view)); !bytes.Equal(got, want) {
				t.Fatal("view restored from the range checkpoints differs from the universe engine")
			}

			// A trickle, shipped as deltas and installed in one step.
			ingest(deltaTestUpdates(rng, numNodes, 4))
			var cps []*Checkpoint
			for i, p := range parts {
				var buf bytes.Buffer
				if delta, err := p.WriteDeltaCheckpoint(&buf, ids[i]); err != nil || !delta {
					t.Fatalf("range %v: delta=%v err=%v", ranges[i], delta, err)
				}
				cp, err := loadRange(view, &buf, ranges[i].Lo, ranges[i].Hi)
				if err != nil {
					t.Fatal(err)
				}
				cps = append(cps, cp)
			}
			if err := view.Install(cps...); err != nil {
				t.Fatal(err)
			}
			want = checkpointSlots(t, fullCheckpoint(t, uni))
			if got := checkpointSlots(t, fullCheckpoint(t, view)); !bytes.Equal(got, want) {
				t.Fatal("view after the installed deltas differs from the universe engine")
			}
		})
	}
}

// TestRangeEngineRefusesForeignBatch pins ingest validation: a batch
// holding one update with neither endpoint in the range is refused whole
// with ErrOutOfRange — nothing buffered, nothing counted, nothing logged.
func TestRangeEngineRefusesForeignBatch(t *testing.T) {
	e, err := NewEngine(Config{NumNodes: 64, Seed: 5, Range: NodeRange{16, 32}, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := checkpointSlots(t, fullCheckpoint(t, e))
	bad := []stream.Update{
		{Edge: stream.Edge{U: 16, V: 40}}, // one endpoint inside
		{Edge: stream.Edge{U: 2, V: 40}},  // none
	}
	if err := e.UpdateBatch(bad); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("UpdateBatch: %v, want ErrOutOfRange", err)
	}
	if err := e.CheckEdge(stream.Edge{U: 2, V: 40}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("CheckEdge: %v, want ErrOutOfRange", err)
	}
	st := e.Stats()
	if st.Updates != 0 || st.WAL.Appends != 0 {
		t.Fatalf("refused batch left %d updates, %d WAL appends", st.Updates, st.WAL.Appends)
	}
	if after := checkpointSlots(t, fullCheckpoint(t, e)); !bytes.Equal(before, after) {
		t.Fatal("refused batch changed the sketches")
	}
	// The lower endpoint's owner counts an update; the other owner applies
	// its half uncounted.
	if err := e.UpdateBatch(bad[:1]); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertEdge(4, 20); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Updates; got != 1 {
		t.Fatalf("Updates = %d, want 1 (only (16,40) has its lower endpoint here)", got)
	}
}

// TestRangeCheckpointRefusesForeignSections: a universe engine's full or
// delta checkpoint read as the range it does not tile or lie in fails with
// ErrOutOfRange, and a range engine restores its own checkpoint.
func TestRangeCheckpointRefusesForeignSections(t *testing.T) {
	const numNodes = 64
	uni, err := NewEngine(Config{NumNodes: numNodes, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer uni.Close()
	if err := uni.UpdateBatch(deltaTestUpdates(rand.New(rand.NewSource(1)), numNodes, 200)); err != nil {
		t.Fatal(err)
	}
	cs, err := uni.SealCheckpointSince(0)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	err = cs.StreamTo(&full)
	base := cs.ID()
	cs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := uni.InsertEdge(1, 2); err != nil { // dirties nodes of [0,32) only
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if ok, err := uni.WriteDeltaCheckpoint(&delta, base); err != nil || !ok {
		t.Fatalf("delta=%v err=%v", ok, err)
	}
	for name, body := range map[string][]byte{"full": full.Bytes(), "delta": delta.Bytes()} {
		if _, err := loadRange(uni, bytes.NewReader(body), 32, 64); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s universe stream read as [32,64): %v, want ErrOutOfRange", name, err)
		}
	}
	if _, err := loadRange(uni, bytes.NewReader(full.Bytes()), 0, 32); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("full universe stream read as [0,32): %v, want ErrOutOfRange", err)
	}

	cfg := Config{NumNodes: numNodes, Seed: 9, Range: NodeRange{32, 64}}
	part, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	if err := part.InsertEdges([]stream.Edge{{U: 3, V: 40}, {U: 40, V: 41}}); err != nil {
		t.Fatal(err)
	}
	own := fullCheckpoint(t, part)
	restored, err := ReadCheckpoint(bytes.NewReader(own), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := fullCheckpoint(t, restored); !bytes.Equal(checkpointSlots(t, got), checkpointSlots(t, own)) {
		t.Fatal("range engine restored from its checkpoint differs")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(full.Bytes()), cfg); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("range engine restored from a universe checkpoint: %v, want ErrOutOfRange", err)
	}
}

// TestInstallCorruptSectionWritesNothing: Install loads an unloaded
// checkpoint before its first write, so one whose second section fails its
// checksum is refused with ErrCorruptCheckpoint, with the engine's slots
// and Stats as they were and no sticky error: the engine keeps ingesting,
// answering and installing, in RAM and out of core.
func TestInstallCorruptSectionWritesNothing(t *testing.T) {
	const numNodes = 64
	for _, disk := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "disk"}[disk], func(t *testing.T) {
			cfg := Config{NumNodes: numNodes, Seed: 9, Shards: 2}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			rng := rand.New(rand.NewSource(3))
			if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 200)); err != nil {
				t.Fatal(err)
			}
			good := fullCheckpoint(t, src)
			bad := bytes.Clone(good)
			secs := layoutOf(t, bad).sections
			if len(secs) < 2 {
				t.Fatalf("the checkpoint has %d sections, the test needs two", len(secs))
			}
			bad[secs[1].off+sectionHeaderLen] ^= 1

			ecfg := cfg
			ecfg.SketchesOnDisk, ecfg.NodesPerGroup = disk, 4
			e, err := NewEngine(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.InsertEdges([]stream.Edge{{U: 1, V: 2}, {U: 40, V: 41}}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ConnectedComponents(); err != nil {
				t.Fatal(err)
			}
			slots, st := rawSlots(t, e), e.Stats()
			cp, err := e.ReadRange(bytes.NewReader(bad), 0, numNodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Install(cp); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("install of a corrupt second section: %v, want ErrCorruptCheckpoint", err)
			}
			if got := e.Stats(); !reflect.DeepEqual(got, st) {
				t.Fatalf("the refused install moved Stats:\n%+v\n%+v", st, got)
			}
			if !bytes.Equal(rawSlots(t, e), slots) {
				t.Fatal("the refused install changed the engine's slots")
			}
			if err := e.InsertEdge(2, 3); err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, e, numNodes, []stream.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 40, V: 41}})
			cp, err = e.ReadRange(bytes.NewReader(good), 0, numNodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Install(cp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rawSlots(t, e), rawSlots(t, src)) {
				t.Fatal("the engine does not hold the installed checkpoint")
			}
		})
	}
}
