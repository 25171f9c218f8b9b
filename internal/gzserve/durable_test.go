package gzserve

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

func pathBatch(edges ...[2]uint32) []stream.Update {
	ups := make([]stream.Update, len(edges))
	for i, e := range edges {
		ups[i] = stream.Update{Edge: stream.Edge{U: e[0], V: e[1]}, Type: stream.Insert}
	}
	return ups
}

// TestDurableWorkerRestartDedupsRetry is the crash-retry double-apply
// regression: a client's ack is lost, the worker process dies, and the
// retry lands on the restarted worker. Without the WAL-carried sequence
// numbers the restarted gate would be empty and the retry would XOR the
// batch straight back out of the sketches; with them it must be
// acknowledged as a duplicate and the engine must equal a once-applied
// reference. Runs over real HTTP on both sides of the restart.
func TestDurableWorkerRestartDedupsRetry(t *testing.T) {
	const numNodes = 32
	cfg := core.Config{NumNodes: numNodes, Seed: 99}
	d := Durability{StateDir: t.TempDir()}
	ctx := context.Background()

	wk1, rec, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Fatalf("fresh durable worker replayed %d records", rec.Records)
	}
	srv1 := httptest.NewServer(wk1.Handler())
	c1 := NewClient(srv1.URL, ClientConfig{})
	batch1 := pathBatch([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3})
	if err := c1.Send(ctx, batch1); err != nil { // assigns seq 1
		t.Fatal(err)
	}

	// Crash: the server stops mid-conversation and the process's in-memory
	// gate dies with it. Closing the engine directly (not Worker.Close)
	// skips the graceful shutdown checkpoint, so recovery must come from
	// the WAL alone.
	srv1.Close()
	if err := wk1.Engine().Close(); err != nil {
		t.Fatal(err)
	}

	wk2, rec2, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer wk2.Close()
	if rec2.Records != 1 || len(rec2.Seqs) != 1 || rec2.Seqs[0] != 1 {
		t.Fatalf("restart replayed %+v, want 1 record with seq 1", rec2)
	}
	srv2 := httptest.NewServer(wk2.Handler())
	defer srv2.Close()
	c2 := NewClient(srv2.URL, ClientConfig{})

	// The retry of the batch the dead process acked must dedup, not apply.
	if err := c2.sendSeq(ctx, 1, batch1); err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	if dups := c2.Stats().Duplicates; dups != 1 {
		t.Fatalf("retry was not acked as a duplicate (client saw %d duplicate acks)", dups)
	}
	if st := wk2.Stats(); st.Duplicates != 1 {
		t.Fatalf("worker counted %d duplicates, want 1", st.Duplicates)
	}

	// Fresh traffic keeps flowing after recovery.
	batch2 := pathBatch([2]uint32{3, 4})
	if err := c2.sendSeq(ctx, 2, batch2); err != nil {
		t.Fatal(err)
	}

	// The engine must equal a once-applied reference: same update count
	// (a double apply would add 3 more) and same spanning forest (a
	// double apply would XOR the path back out, splitting 0..4 apart).
	if got, want := wk2.Stats().Engine.Updates, uint64(len(batch1)+len(batch2)); got != want {
		t.Fatalf("engine saw %d updates, want %d", got, want)
	}
	ok, err := wk2.Engine().Connected(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("nodes 0 and 4 disconnected after recovery: the retry cancelled the batch")
	}
	_, count, err := wk2.Engine().ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if want := int(numNodes) - 4; count != want {
		t.Fatalf("%d components, want %d", count, want)
	}
}

// TestDurableWorkerGracefulRestart verifies the checkpoint path: a clean
// Close writes a checkpoint whose metadata carries the dedup gate, so
// the next incarnation starts with an empty log suffix yet still refuses
// retries of pre-restart sequence numbers.
func TestDurableWorkerGracefulRestart(t *testing.T) {
	const numNodes = 16
	cfg := core.Config{NumNodes: numNodes, Seed: 7}
	d := Durability{StateDir: t.TempDir()}
	ctx := context.Background()

	wk1, _, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(wk1.Handler())
	c1 := NewClient(srv1.URL, ClientConfig{})
	for i := 0; i < 3; i++ {
		if err := c1.Send(ctx, pathBatch([2]uint32{uint32(i), uint32(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()
	if err := wk1.Close(); err != nil { // writes the shutdown checkpoint
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(d.StateDir, CheckpointFileName)); err != nil {
		t.Fatalf("shutdown checkpoint missing: %v", err)
	}

	wk2, rec, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatal(err)
	}
	defer wk2.Close()
	if rec.Records != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", rec.Records)
	}
	if st := wk2.Stats(); st.SeqLowWater != 3 {
		t.Fatalf("restored low water %d, want 3", st.SeqLowWater)
	}
	srv2 := httptest.NewServer(wk2.Handler())
	defer srv2.Close()
	c2 := NewClient(srv2.URL, ClientConfig{})
	if err := c2.sendSeq(ctx, 2, pathBatch([2]uint32{1, 2})); err != nil {
		t.Fatal(err)
	}
	if c2.Stats().Duplicates != 1 {
		t.Fatal("retry of a pre-restart seq was applied, not deduplicated")
	}
	if got, want := wk2.Stats().Engine.Updates, uint64(3); got != want {
		t.Fatalf("engine saw %d updates after dedup, want %d", got, want)
	}
}

// TestDurableWorkerRefusesOlderCheckpoint restarts a durable worker over
// a state directory whose checkpoint is of the older "GZE5" version: the
// restart must fail with core.ErrIncompatibleCheckpoint, as RecoverChain
// does, instead of replaying the log over an engine it cannot read.
func TestDurableWorkerRefusesOlderCheckpoint(t *testing.T) {
	const numNodes = 16
	cfg := core.Config{NumNodes: numNodes, Seed: 7}
	d := Durability{StateDir: t.TempDir()}
	wk, _, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := wk.Engine().InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := wk.Close(); err != nil { // writes the shutdown checkpoint
		t.Fatal(err)
	}
	path := filepath.Join(d.StateDir, CheckpointFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "GZE5")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if wk, _, err := NewDurableWorker(cfg, 0, numNodes, d); !errors.Is(err, core.ErrIncompatibleCheckpoint) {
		if wk != nil {
			wk.Close()
		}
		t.Fatalf("restart over a GZE5 checkpoint: err = %v, want ErrIncompatibleCheckpoint", err)
	}
}

// TestDurableWorkerPeriodicCheckpoint exercises the background loop:
// with a short interval the checkpoint file appears (and the WAL prefix
// it covers is truncated) without any explicit call.
func TestDurableWorkerPeriodicCheckpoint(t *testing.T) {
	cfg := core.Config{NumNodes: 16, Seed: 1}
	d := Durability{StateDir: t.TempDir(), CheckpointInterval: 10 * time.Millisecond}
	wk, _, err := NewDurableWorker(cfg, 0, 16, d)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	if err := wk.Engine().InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.StateDir, CheckpointFileName)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableWorkerKeepsEngineWALConfig checks that the engine config is
// the one source of a durable worker's log settings: a non-default fsync
// policy and segment size set on core.Config reach the recovered engine
// instead of being replaced by defaults.
func TestDurableWorkerKeepsEngineWALConfig(t *testing.T) {
	cfg := core.Config{NumNodes: 16, Seed: 1, WALFsync: wal.FsyncInterval, WALSegmentBytes: 4096}
	wk, _, err := NewDurableWorker(cfg, 0, 16, Durability{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	got := wk.Engine().Config()
	if got.WALFsync != wal.FsyncInterval || got.WALSegmentBytes != 4096 {
		t.Fatalf("engine runs fsync=%s segment=%d bytes, want interval and 4096", got.WALFsync, got.WALSegmentBytes)
	}
}

// TestGateSnapshotRoundTrip pins the GZG1 codec including the
// out-of-order tail above the low-water mark.
func TestGateSnapshotRoundTrip(t *testing.T) {
	g := newSeqGate()
	for _, s := range []uint64{1, 2, 3, 7, 9} {
		if g.Claim(s) != claimNew {
			t.Fatalf("claim %d", s)
		}
		g.Commit(s)
	}
	blob := g.snapshot()
	g2 := newSeqGate()
	if err := g2.restore(blob); err != nil {
		t.Fatal(err)
	}
	if g2.LowWater() != 3 {
		t.Fatalf("restored low water %d, want 3", g2.LowWater())
	}
	for s, want := range map[uint64]claimState{2: claimDup, 7: claimDup, 9: claimDup, 4: claimNew} {
		if got := g2.Claim(s); got != want {
			t.Fatalf("claim %d after restore = %v, want %v", s, got, want)
		}
	}
	if err := g2.restore([]byte("GZG1 but short")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if err := newSeqGate().restore(nil); err != nil {
		t.Fatalf("nil snapshot: %v", err)
	}
}

// TestDurableWorkerDeltaChainCrashRecovery drives the on-disk chain: the
// first local checkpoint is a full file, later ones append sparse
// delta-NNNNNN.gzd links that never truncate the WAL, and a crash (no
// graceful shutdown) recovers base + chain + WAL suffix — engine and
// dedup gate both — before serving. A retry of a batch whose record only
// survives inside a delta link must dedup, not re-apply.
func TestDurableWorkerDeltaChainCrashRecovery(t *testing.T) {
	const numNodes = 32
	cfg := core.Config{NumNodes: numNodes, Seed: 3, DeltaCheckpointThreshold: 1}
	d := Durability{StateDir: t.TempDir()}
	ctx := context.Background()

	wk1, _, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(wk1.Handler())
	c1 := NewClient(srv1.URL, ClientConfig{})

	// seq 1 → full checkpoint; seq 2, 3 → one delta link each; seq 4
	// lives only in the WAL when the process dies.
	batches := [][]stream.Update{
		pathBatch([2]uint32{0, 1}),
		pathBatch([2]uint32{1, 2}),
		pathBatch([2]uint32{2, 3}),
		pathBatch([2]uint32{3, 4}),
	}
	for i, b := range batches {
		if err := c1.Send(ctx, b); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if err := wk1.CheckpointLocal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range []string{CheckpointFileName, "delta-000000.gzd", "delta-000001.gzd"} {
		if _, err := os.Stat(filepath.Join(d.StateDir, f)); err != nil {
			t.Fatalf("chain file %s missing after local checkpoints: %v", f, err)
		}
	}

	srv1.Close()
	if err := wk1.Engine().Close(); err != nil {
		t.Fatal(err)
	}

	wk2, rec, err := NewDurableWorker(cfg, 0, numNodes, d)
	if err != nil {
		t.Fatalf("restart over a delta chain: %v", err)
	}
	defer wk2.Close()
	// The chain covered seqs 1-3; only seq 4's record should need replay.
	if rec.Records != 1 {
		t.Fatalf("restart replayed %d WAL records, want 1 (chain covers the rest)", rec.Records)
	}
	srv2 := httptest.NewServer(wk2.Handler())
	defer srv2.Close()
	c2 := NewClient(srv2.URL, ClientConfig{})

	// seq 2's batch survives only inside delta-000000.gzd: the recovered
	// gate must still refuse its retry.
	if err := c2.sendSeq(ctx, 2, batches[1]); err != nil {
		t.Fatal(err)
	}
	if dups := wk2.Stats().Duplicates; dups != 1 {
		t.Fatalf("retry of a delta-covered seq counted %d duplicates, want 1", dups)
	}
	var total uint64
	for _, b := range batches {
		total += uint64(len(b))
	}
	if got := wk2.Stats().Engine.Updates; got != total {
		t.Fatalf("recovered engine saw %d updates, want %d", got, total)
	}
	ok, err := wk2.Engine().Connected(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("path 0..4 broken after chain recovery")
	}
}
