package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// recoverTestBatches builds n deterministic random batches over numNodes
// nodes.
func recoverTestBatches(rng *rand.Rand, numNodes uint32, n int) [][]stream.Update {
	batches := make([][]stream.Update, n)
	for i := range batches {
		b := make([]stream.Update, 3+rng.Intn(25))
		for j := range b {
			u := uint32(rng.Intn(int(numNodes)))
			v := uint32(rng.Intn(int(numNodes - 1)))
			if v >= u {
				v++
			}
			b[j] = stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Insert}
		}
		batches[i] = b
	}
	return batches
}

// checkpointBytes drains and serializes an engine's full state,
// normalized for bit-identity comparison: the chain-identity bytes (meta
// CRC in the header, random lineage tag and minted seal id in the GZM1
// envelope) are zeroed, because two engines holding identical sketch
// state still legitimately differ in lineage tag and seal count.
func checkpointBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	b := buf.Bytes()
	envOff := layoutOf(t, b).metaOff
	for i := 48; i < 52; i++ { // metaCRC
		b[i] = 0
	}
	for i := envOff + 4; i < envOff+20; i++ { // chainTag + ckptID
		b[i] = 0
	}
	return b
}

// sortedForest returns the spanning forest in canonical order.
func sortedForest(t *testing.T, e *Engine) []stream.Edge {
	t.Helper()
	f, err := e.SpanningForest()
	if err != nil {
		t.Fatalf("SpanningForest: %v", err)
	}
	sort.Slice(f, func(i, j int) bool {
		if f[i].U != f[j].U {
			return f[i].U < f[j].U
		}
		return f[i].V < f[j].V
	})
	return f
}

// TestRecoverCrashMidIngest is the randomized crash harness of the
// durability design: an engine with FsyncBatch logging ingests batches,
// writes a mid-stream checkpoint, and "loses power" after a randomized
// number of further batches (the WAL image keeps only what a real crash
// would keep). Recover must then produce an engine bit-identical — same
// checkpoint bytes, same spanning forest — to a reference engine that
// ingested exactly the surviving prefix and never crashed. Runs in RAM
// and disk modes.
func TestRecoverCrashMidIngest(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed))
					const numNodes = 96
					batches := recoverTestBatches(rng, numNodes, 12+rng.Intn(30))
					ckptAt := rng.Intn(len(batches))                      // checkpoint after this many batches
					crashAt := ckptAt + rng.Intn(len(batches)-ckptAt) + 1 // crash after this many
					if crashAt > len(batches) {
						crashAt = len(batches)
					}
					ckptPath := filepath.Join(t.TempDir(), "ckpt.gze")

					st := wal.NewMemStorage(64)
					cfg := Config{
						NumNodes:        numNodes,
						Seed:            42,
						Workers:         2,
						SketchesOnDisk:  disk,
						WAL:             true,
						WALStorage:      st,
						WALSegmentBytes: 1 << 12,
					}
					eng, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < crashAt; i++ {
						if err := eng.UpdateBatchSeq(batches[i], uint64(i+1)); err != nil {
							t.Fatal(err)
						}
						if i+1 == ckptAt {
							if err := eng.WriteCheckpointFile(ckptPath); err != nil {
								t.Fatal(err)
							}
						}
					}
					// Power cut: under FsyncBatch every acked batch is synced,
					// so keeping zero unsynced writes must lose nothing acked.
					crashed := st.Crash(nil)
					eng.Close() // the dying process's shutdown must not matter

					path := ckptPath
					if ckptAt == 0 {
						path = "" // no checkpoint was ever written
					}
					rcfg := cfg
					rcfg.WALStorage = crashed
					rec, info, err := Recover(path, rcfg)
					if err != nil {
						t.Fatalf("Recover: %v", err)
					}
					defer rec.Close()
					if got := int(info.Records); got != crashAt-ckptAt {
						t.Fatalf("replayed %d records, want %d", got, crashAt-ckptAt)
					}
					if len(info.Seqs) != crashAt-ckptAt {
						t.Fatalf("recovered %d seqs, want %d", len(info.Seqs), crashAt-ckptAt)
					}

					ref, err := NewEngine(cfg2fresh(cfg))
					if err != nil {
						t.Fatal(err)
					}
					defer ref.Close()
					for i := 0; i < crashAt; i++ {
						if err := ref.UpdateBatchSeq(batches[i], uint64(i+1)); err != nil {
							t.Fatal(err)
						}
					}

					if ru, fu := rec.Stats().Updates, ref.Stats().Updates; ru != fu {
						t.Fatalf("recovered %d updates, reference %d", ru, fu)
					}
					rf, ff := sortedForest(t, rec), sortedForest(t, ref)
					if len(rf) != len(ff) {
						t.Fatalf("forest sizes differ: %d vs %d", len(rf), len(ff))
					}
					for i := range rf {
						if rf[i] != ff[i] {
							t.Fatalf("forest edge %d: %v vs %v", i, rf[i], ff[i])
						}
					}
					if !bytes.Equal(checkpointBytes(t, rec), checkpointBytes(t, ref)) {
						t.Fatal("recovered checkpoint bytes differ from never-crashed reference")
					}
				})
			}
		})
	}
}

// cfg2fresh gives the reference engine its own WAL storage so its LSN
// bookkeeping (and therefore its checkpoint header) matches the
// recovered engine's without sharing state.
func cfg2fresh(cfg Config) Config {
	cfg.WALStorage = wal.NewMemStorage(64)
	return cfg
}

// TestRecoverFsyncOffPrefix covers the relaxed policies: with fsync off
// an arbitrary power cut keeps only some prefix of the log, and recovery
// must land exactly on an engine that ingested that prefix.
func TestRecoverFsyncOffPrefix(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(100 + seed))
			const numNodes = 64
			batches := recoverTestBatches(rng, numNodes, 10+rng.Intn(25))
			st := wal.NewMemStorage(32)
			cfg := Config{
				NumNodes:        numNodes,
				Seed:            7,
				WAL:             true,
				WALStorage:      st,
				WALFsync:        wal.FsyncOff,
				WALSegmentBytes: 1 << 10,
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if err := eng.UpdateBatchSeq(b, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			crashed := st.Crash(func(name string, unsynced int) (keep, torn int) {
				return rng.Intn(unsynced + 1), rng.Intn(128)
			})
			eng.Close()

			rcfg := cfg
			rcfg.WALStorage = crashed
			rec, info, err := Recover("", rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			survived := int(info.Records)
			if survived > len(batches) {
				t.Fatalf("replayed %d records, only %d appended", survived, len(batches))
			}
			// The replayed seqs must be exactly 1..survived — a prefix,
			// never a subset with holes.
			for i, s := range info.Seqs {
				if s != uint64(i+1) {
					t.Fatalf("seq %d at position %d: replay is not a prefix", s, i)
				}
			}

			ref, err := NewEngine(cfg2fresh(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for i := 0; i < survived; i++ {
				if err := ref.UpdateBatchSeq(batches[i], uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(checkpointBytes(t, rec), checkpointBytes(t, ref)) {
				t.Fatalf("prefix recovery (%d of %d batches) not bit-identical", survived, len(batches))
			}
		})
	}
}

// TestRecoverCheckpointOnly models losing the entire WAL while the
// checkpoint survives: recovery must restore the checkpoint, skip the
// LSN cursor past its covered position, and keep working.
func TestRecoverCheckpointOnly(t *testing.T) {
	const numNodes = 32
	st := wal.NewMemStorage(64)
	cfg := Config{NumNodes: numNodes, Seed: 3, WAL: true, WALStorage: st}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batches := recoverTestBatches(rng, numNodes, 8)
	for i, b := range batches {
		if err := eng.UpdateBatchSeq(b, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.gze")
	if err := eng.WriteCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	rcfg := cfg
	rcfg.WALStorage = wal.NewMemStorage(64) // the log is gone
	rec, info, err := Recover(ckpt, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.Records != 0 || info.CheckpointWALPos != 8 {
		t.Fatalf("recovery = %+v, want 0 replayed records covering pos 8", info)
	}
	// New ingest must get LSNs above the covered range.
	if err := rec.UpdateBatchSeq(batches[0], 99); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().WAL.TailLSN; got != 9 {
		t.Fatalf("tail after skip+append = %d, want 9", got)
	}
}

// TestRecoverMetaRoundTrip pins the checkpoint meta plumbing: the blob a
// SetCheckpointMeta supplier seals travels through file and stream
// restores and comes back from Recover.
func TestRecoverMetaRoundTrip(t *testing.T) {
	st := wal.NewMemStorage(64)
	cfg := Config{NumNodes: 16, Seed: 5, WAL: true, WALStorage: st}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := []byte("gate-state-v1:\x00\x01\x02 watermark=42")
	eng.SetCheckpointMeta(func() []byte { return meta })
	if err := eng.InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.gze")
	if err := eng.WriteCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}

	// Streaming restore (ReadCheckpoint) sees the meta too.
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	se, err := ReadCheckpoint(&buf, Config{NumNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(se.RestoredMeta(), meta) {
		t.Fatalf("streamed restore meta = %q", se.RestoredMeta())
	}
	se.Close()
	eng.Close()

	rcfg := cfg
	rcfg.WALStorage = st
	rec, info, err := Recover(ckpt, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !bytes.Equal(info.Meta, meta) {
		t.Fatalf("recovered meta = %q, want %q", info.Meta, meta)
	}
}

// TestWALTruncationOnCheckpoint verifies checkpoints bound log growth:
// segments wholly covered by the checkpoint disappear.
func TestWALTruncationOnCheckpoint(t *testing.T) {
	st := wal.NewMemStorage(64)
	cfg := Config{
		NumNodes:        64,
		WAL:             true,
		WALStorage:      st,
		WALSegmentBytes: 1 << 9,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(4))
	for _, b := range recoverTestBatches(rng, 64, 40) {
		if err := eng.UpdateBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Stats().WAL
	if before.Segments < 3 {
		t.Fatalf("need multiple segments, got %d", before.Segments)
	}
	if err := eng.WriteCheckpointFile(filepath.Join(t.TempDir(), "c.gze")); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats().WAL
	if after.Truncations == 0 || after.Segments >= before.Segments {
		t.Fatalf("checkpoint did not truncate: before %d segments, after %d (truncations %d)",
			before.Segments, after.Segments, after.Truncations)
	}
}

func BenchmarkRecover(b *testing.B) {
	const numNodes = 1 << 12
	dir := b.TempDir()
	cfg := Config{
		NumNodes: numNodes,
		Seed:     11,
		Workers:  4,
		WAL:      true,
		WALDir:   filepath.Join(dir, "wal"),
		WALFsync: wal.FsyncOff, // the benchmark measures replay, not fsync
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ups := make([]stream.Update, 512)
	var total uint64
	for i := 0; i < 200; i++ {
		for j := range ups {
			u := uint32(rng.Intn(numNodes))
			v := uint32(rng.Intn(numNodes - 1))
			if v >= u {
				v++
			}
			ups[j] = stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Insert}
		}
		if err := eng.UpdateBatch(ups); err != nil {
			b.Fatal(err)
		}
		total += uint64(len(ups))
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(total) * stream.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, info, err := Recover("", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if info.Updates != total {
			b.Fatalf("replayed %d updates, want %d", info.Updates, total)
		}
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
}
