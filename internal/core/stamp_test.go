package core

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// deltaNodes lists, ascending, the nodes a checkpoint stream carries.
func deltaNodes(t *testing.T, b []byte) []uint32 {
	t.Helper()
	var ids []uint32
	for _, run := range layoutOf(t, b).sections {
		for j := 0; j < run.count; j++ {
			ids = append(ids, run.start+uint32(j))
		}
	}
	return ids
}

// TestStampDeltaAcrossManySeals gives one engine two readers. Reader A
// holds a full checkpoint; reader B then seals its own delta chain 100
// times over small trickles, with queries cutting in between. A delta
// against A's base must still be a delta, carry exactly the nodes changed
// since that base, and applied to it reproduce the tip byte for byte.
func TestStampDeltaAcrossManySeals(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			const numNodes = 256
			cfg := Config{NumNodes: numNodes, Seed: 29, Shards: 2, SketchesOnDisk: disk, NodesPerGroup: 4}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			rng := rand.New(rand.NewSource(3))
			if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 600)); err != nil {
				t.Fatal(err)
			}
			var base bytes.Buffer
			if err := src.WriteCheckpoint(&base); err != nil {
				t.Fatal(err)
			}
			baseID := src.Stats().LastCheckpointID
			dst, err := ReadCheckpoint(bytes.NewReader(base.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()

			changed := map[uint32]bool{}
			var sinceB uint64
			for seal := 0; seal < 100; seal++ {
				ups := deltaTestUpdates(rng, 24, 2)
				if err := src.UpdateBatch(ups); err != nil {
					t.Fatal(err)
				}
				for _, u := range ups {
					changed[u.Edge.U], changed[u.Edge.V] = true, true
				}
				if seal%10 == 0 {
					if _, _, err := src.ConnectedComponents(); err != nil {
						t.Fatal(err)
					}
				}
				cs, err := src.SealCheckpointSince(sinceB)
				if err != nil {
					t.Fatal(err)
				}
				if seal > 0 && !cs.IsDelta() {
					cs.Close()
					t.Fatalf("reader B's seal %d fell back to a full checkpoint", seal)
				}
				sinceB = cs.ID()
				err = cs.StreamTo(io.Discard)
				cs.Close()
				if err != nil {
					t.Fatal(err)
				}
			}

			var delta bytes.Buffer
			isDelta, err := src.WriteDeltaCheckpoint(&delta, baseID)
			if err != nil {
				t.Fatal(err)
			}
			if !isDelta {
				t.Fatal("a base 100 seals old fell back to a full checkpoint")
			}
			want := make([]uint32, 0, len(changed))
			for v := range changed {
				want = append(want, v)
			}
			slices.Sort(want)
			if got := deltaNodes(t, delta.Bytes()); !slices.Equal(got, want) {
				t.Fatalf("delta carries nodes %v, want the %d changed since the base %v", got, len(want), want)
			}
			if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta.Bytes())); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
				t.Fatal("base + delta differs from a full checkpoint of the tip")
			}
		})
	}
}

// TestStampApplyDeltaAdoptsTip pins what an applied delta leaves behind: the
// consumer holds exactly the tip, so a seal since the tip with no update in
// between is a delta over no node, and the next one carries just the nodes
// changed after it.
func TestStampApplyDeltaAdoptsTip(t *testing.T) {
	_, full, delta := deltaChainFixture(t)
	dst := restoreConsumer(t, full)
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
	if len(deltaNodes(t, delta)) == 0 {
		t.Fatal("fixture delta replaced no node")
	}
	seal := func(since uint64) (ids []uint32, id uint64) {
		t.Helper()
		var buf bytes.Buffer
		isDelta, err := dst.WriteDeltaCheckpoint(&buf, since)
		if err != nil {
			t.Fatal(err)
		}
		if !isDelta {
			t.Fatalf("seal since %d is a full checkpoint, want a delta", since)
		}
		return deltaNodes(t, buf.Bytes()), dst.Stats().LastCheckpointID
	}
	ids, tip := seal(dst.Stats().LastCheckpointID)
	if len(ids) != 0 {
		t.Fatalf("seal since the applied tip re-ships nodes %v", ids)
	}
	if err := dst.InsertEdge(40, 41); err != nil {
		t.Fatal(err)
	}
	if ids, _ = seal(tip); !slices.Equal(ids, []uint32{40, 41}) {
		t.Fatalf("seal after one edge carries nodes %v, want [40 41]", ids)
	}
}
