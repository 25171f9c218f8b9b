package graphzeppelin_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	gz "graphzeppelin"
)

// TestWALRecoverAPI drives the public durability surface end to end:
// WithWAL + SaveCheckpoint + RecoverChain, checking the recovered Graph
// answers exactly like the original and that Stats surfaces the log
// counters.
func TestWALRecoverAPI(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "ckpt.gze")
	opts := []gz.Option{
		gz.WithSeed(12),
		gz.WithWAL(walDir),
		gz.WithWALSegmentBytes(1 << 16),
		gz.WithFsyncPolicy(gz.FsyncBatch),
	}

	g, err := gz.New(64, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 9; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: only these should need WAL replay.
	if err := g.Insert(20, 21); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.WAL.Appends == 0 || st.WAL.TailLSN == 0 {
		t.Fatalf("WAL stats empty: %+v", st.WAL)
	}
	if err := g.Close(); err != nil { // stands in for the crash; the log has everything
		t.Fatal(err)
	}

	r, rec, err := gz.RecoverChain(64, ckpt, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec.Records != 1 {
		t.Fatalf("replayed %d records, want 1 (post-checkpoint tail)", rec.Records)
	}
	ok, err := r.Connected(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("checkpointed edges lost")
	}
	if ok, _ := r.Connected(20, 21); !ok {
		t.Fatal("WAL tail not replayed")
	}
	if ok, _ := r.Connected(0, 20); ok {
		t.Fatal("phantom connectivity after recovery")
	}

	// Fresh-start recovery (no checkpoint file) must also work.
	f, rec2, err := gz.RecoverChain(64, filepath.Join(dir, "absent.gze"), nil, gz.WithWAL(filepath.Join(dir, "wal2")))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if rec2.Records != 0 {
		t.Fatalf("fresh recovery replayed %d records", rec2.Records)
	}

	if _, err := gz.ParseFsyncPolicy("interval"); err != nil {
		t.Fatal(err)
	}
	if _, err := gz.ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
}

// TestCompactCheckpointsAPI folds a base checkpoint file and two delta
// files through the public wrapper: the compacted file opens to a Graph
// that answers like the chain tip, with the tip's checkpoint id and WAL
// coverage, and a torn delta fails the fold.
func TestCompactCheckpointsAPI(t *testing.T) {
	dir := t.TempDir()
	g, err := gz.New(64, gz.WithSeed(12), gz.WithWAL(filepath.Join(dir, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 9; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	base := filepath.Join(dir, "base.gze")
	if err := g.SaveCheckpoint(base); err != nil {
		t.Fatal(err)
	}
	var deltas []string
	for i, eg := range []gz.Edge{{U: 20, V: 21}, {U: 4, V: 5}} { // an insert, then a delete
		if err := g.Insert(eg.U, eg.V); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if delta, err := g.WriteDeltaCheckpoint(&buf, g.CheckpointID()); err != nil || !delta {
			t.Fatalf("delta %d: delta=%v err=%v", i, delta, err)
		}
		p := filepath.Join(dir, fmt.Sprintf("delta-%d.gzd", i))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, p)
	}
	tip := g.Stats()
	if tip.LastCheckpointWALLSN == 0 {
		t.Fatal("the chain tip covers no WAL position")
	}

	out := filepath.Join(dir, "compacted.gze")
	if err := gz.CompactCheckpoints(out, base, deltas, gz.WithSeed(12)); err != nil {
		t.Fatal(err)
	}
	c, err := gz.OpenCheckpoint(out)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.LastCheckpointID != tip.LastCheckpointID || st.LastCheckpointWALLSN != tip.LastCheckpointWALLSN ||
		st.Updates != tip.Updates {
		t.Fatalf("compacted checkpoint at id %d, WAL %d, %d updates; the tip at id %d, WAL %d, %d updates",
			st.LastCheckpointID, st.LastCheckpointWALLSN, st.Updates, tip.LastCheckpointID, tip.LastCheckpointWALLSN, tip.Updates)
	}
	if !slices.Equal(repPartition(t, c), repPartition(t, g)) {
		t.Fatal("the compacted checkpoint answers unlike the chain tip")
	}

	b, err := os.ReadFile(deltas[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltas[1], b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gz.CompactCheckpoints(filepath.Join(dir, "torn.gze"), base, deltas); err == nil {
		t.Fatal("a chain with a torn delta folded without error")
	}
}
