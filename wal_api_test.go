package graphzeppelin_test

import (
	"path/filepath"
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
