package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// deltaTestUpdates builds n deterministic updates over the first `span`
// nodes of the universe (span = numNodes for unrestricted).
func deltaTestUpdates(rng *rand.Rand, span uint32, n int) []stream.Update {
	ups := make([]stream.Update, n)
	for i := range ups {
		u := uint32(rng.Intn(int(span)))
		v := uint32(rng.Intn(int(span - 1)))
		if v >= u {
			v++
		}
		ups[i] = stream.Update{Edge: stream.Edge{U: u, V: v}, Type: stream.Insert}
	}
	return ups
}

// TestDeltaCheckpointRoundTrip is the chain's core contract: a consumer
// holding a full checkpoint, fed the producer's deltas in order, is
// byte-identical to the producer at every link — for RAM and disk
// producers, across multiple chained deltas.
func TestDeltaCheckpointRoundTrip(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "ram"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const numNodes = 128
			cfg := Config{NumNodes: numNodes, Seed: 11, Workers: 2, SketchesOnDisk: disk}
			src, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 400)); err != nil {
				t.Fatal(err)
			}

			var full bytes.Buffer
			if err := src.WriteCheckpoint(&full); err != nil {
				t.Fatal(err)
			}
			baseID := src.Stats().LastCheckpointID
			if baseID == 0 {
				t.Fatal("full checkpoint minted no chain id")
			}
			dst, err := ReadCheckpoint(bytes.NewReader(full.Bytes()), Config{NumNodes: numNodes, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if got := dst.Stats().LastCheckpointID; got != baseID {
				t.Fatalf("consumer adopted chain id %d, want %d", got, baseID)
			}

			// Three chained deltas, each over a small trickle. State is
			// byte-compared once after the chain: checkpointBytes itself
			// seals, which would advance the chain mid-loop.
			for link := 0; link < 3; link++ {
				if err := src.UpdateBatch(deltaTestUpdates(rng, 16, 10)); err != nil {
					t.Fatal(err)
				}
				base := src.Stats().LastCheckpointID
				var buf bytes.Buffer
				delta, err := src.WriteDeltaCheckpoint(&buf, base)
				if err != nil {
					t.Fatal(err)
				}
				if !delta {
					t.Fatalf("link %d: expected a delta, got a full checkpoint", link)
				}
				if buf.Len() >= full.Len()/4 {
					t.Fatalf("link %d: delta is %d bytes, full is %d — not sparse", link, buf.Len(), full.Len())
				}
				if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(buf.Bytes()), nil); err != nil {
					t.Fatalf("link %d: apply: %v", link, err)
				}
				if got, want := dst.Stats().LastCheckpointID, src.Stats().LastCheckpointID; got != want {
					t.Fatalf("link %d: consumer at id %d, producer at %d", link, got, want)
				}
				if su, du := src.Stats().Updates, dst.Stats().Updates; su != du {
					t.Fatalf("link %d: consumer at %d updates, producer at %d", link, du, su)
				}
			}
			if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
				t.Fatal("consumer state diverged from producer after the chain")
			}
			st := src.Stats()
			if st.DeltaCheckpoints != 3 {
				t.Fatalf("DeltaCheckpoints = %d, want 3", st.DeltaCheckpoints)
			}
			if st.DeltaCheckpointBytes == 0 || st.FullCheckpointBytes == 0 {
				t.Fatalf("checkpoint byte counters not populated: delta=%d full=%d",
					st.DeltaCheckpointBytes, st.FullCheckpointBytes)
			}
			if st.DeltaCheckpointBytes*4 >= st.FullCheckpointBytes {
				t.Fatalf("3 deltas cost %d bytes vs %d full — not sparse", st.DeltaCheckpointBytes, st.FullCheckpointBytes)
			}
		})
	}
}

// TestDeltaCheckpointFallbacks covers every reason a SealCheckpointSince
// legitimately answers with a full checkpoint instead of a delta.
func TestDeltaCheckpointFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const numNodes = 64
	newEng := func(thr float64) *Engine {
		e, err := NewEngine(Config{NumNodes: numNodes, Seed: 3, DeltaCheckpointThreshold: thr})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.UpdateBatch(deltaTestUpdates(rng, numNodes, 100)); err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("unknown base", func(t *testing.T) {
		e := newEng(0)
		defer e.Close()
		var buf bytes.Buffer
		if delta, err := e.WriteDeltaCheckpoint(&buf, 999); err != nil || delta {
			t.Fatalf("delta=%v err=%v against an id never sealed, want full", delta, err)
		}
	})
	t.Run("zero base", func(t *testing.T) {
		e := newEng(0)
		defer e.Close()
		var buf bytes.Buffer
		if delta, err := e.WriteDeltaCheckpoint(&buf, 0); err != nil || delta {
			t.Fatalf("delta=%v err=%v with base 0, want full", delta, err)
		}
	})
	t.Run("over threshold", func(t *testing.T) {
		e := newEng(0.05) // 100 updates over 64 nodes dirty nearly everything
		defer e.Close()
		var full bytes.Buffer
		if err := e.WriteCheckpoint(&full); err != nil {
			t.Fatal(err)
		}
		base := e.Stats().LastCheckpointID
		if err := e.UpdateBatch(deltaTestUpdates(rng, numNodes, 200)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if delta, err := e.WriteDeltaCheckpoint(&buf, base); err != nil || delta {
			t.Fatalf("delta=%v err=%v over the dirty threshold, want full", delta, err)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		e := newEng(-1)
		defer e.Close()
		var full bytes.Buffer
		if err := e.WriteCheckpoint(&full); err != nil {
			t.Fatal(err)
		}
		base := e.Stats().LastCheckpointID
		if err := e.UpdateBatch(deltaTestUpdates(rng, 8, 4)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if delta, err := e.WriteDeltaCheckpoint(&buf, base); err != nil || delta {
			t.Fatalf("delta=%v err=%v with deltas disabled, want full", delta, err)
		}
	})
}

// deltaChainFixture builds a producer, its full checkpoint bytes, and
// one sealed delta chaining onto that checkpoint. Consumers are restored
// from the full bytes with restoreConsumer.
func deltaChainFixture(t *testing.T) (src *Engine, fullBytes, deltaBytes []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	const numNodes = 96
	cfg := Config{NumNodes: numNodes, Seed: 5}
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 300)); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := src.WriteCheckpoint(&full); err != nil {
		t.Fatal(err)
	}
	baseID := src.Stats().LastCheckpointID
	if err := src.UpdateBatch(deltaTestUpdates(rng, 12, 8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	delta, err := src.WriteDeltaCheckpoint(&buf, baseID)
	if err != nil {
		t.Fatal(err)
	}
	if !delta {
		t.Fatal("fixture expected a delta")
	}
	return src, full.Bytes(), buf.Bytes()
}

func restoreConsumer(t *testing.T, full []byte) *Engine {
	t.Helper()
	dst, err := ReadCheckpoint(bytes.NewReader(full), Config{NumNodes: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	return dst
}

// TestApplyDeltaTruncated feeds every truncation point of a valid delta
// stream to ApplyDeltaCheckpoint: all must fail, and none may change the
// consumer's state (the apply is atomic: full validation precedes any
// slot install).
func TestApplyDeltaTruncated(t *testing.T) {
	src, full, delta := deltaChainFixture(t)
	dst := restoreConsumer(t, full)
	baseID := dst.Stats().LastCheckpointID
	baseUpdates := dst.Stats().Updates
	// Every prefix would be slow; probe the structural boundaries plus a
	// spread of interior cuts.
	cuts := []int{0, 3, 4, 20, 51, 52, 60, len(delta) / 2, len(delta) - 1}
	for _, n := range cuts {
		if n >= len(delta) {
			continue
		}
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta[:n]), nil); err == nil {
			t.Fatalf("apply of %d/%d byte prefix succeeded", n, len(delta))
		}
		if id := dst.Stats().LastCheckpointID; id != baseID {
			t.Fatalf("truncated apply at %d bytes advanced the chain to %d", n, id)
		}
		if u := dst.Stats().Updates; u != baseUpdates {
			t.Fatalf("truncated apply at %d bytes changed the update count to %d", n, u)
		}
	}
	// Flipping a payload byte must be caught by the section CRC.
	corrupt := append([]byte(nil), delta...)
	corrupt[len(corrupt)-10] ^= 0xff
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(corrupt), nil); err == nil {
		t.Fatal("apply of corrupted payload succeeded")
	}
	// The intact stream still applies after all the failures, and lands
	// the consumer bit-identical to the producer — so none of the failed
	// applies can have installed a partial slot.
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta), nil); err != nil {
		t.Fatalf("intact apply after failures: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
		t.Fatal("consumer diverged from producer after failed applies")
	}
}

// TestApplyDeltaChainErrors covers the chain checks: a delta applied to
// the wrong base (double apply, out-of-order links, a foreign lineage)
// is refused with ErrCheckpointChain and changes nothing.
func TestApplyDeltaChainErrors(t *testing.T) {
	t.Run("double apply", func(t *testing.T) {
		src, full, delta := deltaChainFixture(t)
		dst := restoreConsumer(t, full)
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta), nil); err != nil {
			t.Fatal(err)
		}
		err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta), nil)
		if !errors.Is(err, ErrCheckpointChain) {
			t.Fatalf("second apply: got %v, want ErrCheckpointChain", err)
		}
		if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
			t.Fatal("refused apply mutated the consumer")
		}
	})

	t.Run("out of order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		const numNodes = 96
		cfg := Config{NumNodes: numNodes, Seed: 5}
		src, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 300)); err != nil {
			t.Fatal(err)
		}
		var full bytes.Buffer
		if err := src.WriteCheckpoint(&full); err != nil {
			t.Fatal(err)
		}
		var d1, d2 bytes.Buffer
		for _, buf := range []*bytes.Buffer{&d1, &d2} {
			base := src.Stats().LastCheckpointID
			if err := src.UpdateBatch(deltaTestUpdates(rng, 12, 8)); err != nil {
				t.Fatal(err)
			}
			if delta, err := src.WriteDeltaCheckpoint(buf, base); err != nil || !delta {
				t.Fatalf("delta=%v err=%v", delta, err)
			}
		}
		dst, err := ReadCheckpoint(bytes.NewReader(full.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		// d2 chains onto d1's tip, not onto the base.
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(d2.Bytes()), nil); !errors.Is(err, ErrCheckpointChain) {
			t.Fatalf("skipping a link: got %v, want ErrCheckpointChain", err)
		}
		// In order, both apply, and the consumer lands on the producer.
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(d1.Bytes()), nil); err != nil {
			t.Fatal(err)
		}
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(d2.Bytes()), nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
			t.Fatal("consumer state diverged after in-order chain")
		}
	})

	t.Run("foreign lineage", func(t *testing.T) {
		_, _, delta := deltaChainFixture(t)
		rng := rand.New(rand.NewSource(55))
		other, err := NewEngine(Config{NumNodes: 96, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if err := other.UpdateBatch(deltaTestUpdates(rng, 96, 50)); err != nil {
			t.Fatal(err)
		}
		var full bytes.Buffer
		if err := other.WriteCheckpoint(&full); err != nil {
			t.Fatal(err)
		}
		if err := other.ApplyDeltaCheckpoint(bytes.NewReader(delta), nil); !errors.Is(err, ErrCheckpointChain) {
			t.Fatalf("foreign delta: got %v, want ErrCheckpointChain", err)
		}
	})
}

// TestRecoverChainKillPoints is the crash harness for the delta chain: a
// durable engine writes a full checkpoint, chains delta files onto it
// (which never truncate the WAL), keeps ingesting, and loses power.
// Whatever prefix of the chain survives — all of it, a corrupted tail,
// or nothing past the base — RecoverChain must land bit-identical to a
// reference engine that ingested every acked batch and never crashed,
// because the log past the base covers anything a lost delta held.
func TestRecoverChainKillPoints(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, corruptLast := range []bool{false, true} {
			seed, corruptLast := seed, corruptLast
			name := fmt.Sprintf("seed%d", seed)
			if corruptLast {
				name += "-corrupt"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(300 + seed))
				const numNodes = 80
				dir := t.TempDir()
				basePath := filepath.Join(dir, "ckpt.gze")
				batches := recoverTestBatches(rng, numNodes, 16+rng.Intn(12))
				nDeltas := 1 + rng.Intn(3)
				// Seal points: base after batch b0, one delta after each of
				// d[0..nDeltas), crash after every batch ran.
				b0 := 2 + rng.Intn(4)

				st := wal.NewMemStorage(64)
				cfg := Config{
					NumNodes:   numNodes,
					Seed:       42,
					Workers:    2,
					WAL:        true,
					WALStorage: st,
					// The batches dirty most of the universe between seals;
					// keep the seals deltas anyway — the harness tests the
					// chain, not the fallback.
					DeltaCheckpointThreshold: 1,
				}
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var deltaPaths []string
				sealEvery := (len(batches) - b0) / (nDeltas + 1)
				if sealEvery < 1 {
					sealEvery = 1
				}
				for i := 0; i < len(batches); i++ {
					if err := eng.UpdateBatchSeq(batches[i], uint64(i+1)); err != nil {
						t.Fatal(err)
					}
					if i+1 == b0 {
						if err := eng.WriteCheckpointFile(basePath); err != nil {
							t.Fatal(err)
						}
					}
					if i+1 > b0 && (i+1-b0)%sealEvery == 0 && len(deltaPaths) < nDeltas {
						p := filepath.Join(dir, fmt.Sprintf("delta-%06d.gzd", len(deltaPaths)))
						cs, err := eng.SealCheckpointSince(eng.Stats().LastCheckpointID)
						if err != nil {
							t.Fatal(err)
						}
						if !cs.IsDelta() {
							cs.Close()
							t.Fatalf("chain link %d sealed full", len(deltaPaths))
						}
						if err := cs.WriteFile(p); err != nil {
							t.Fatal(err)
						}
						cs.Close()
						deltaPaths = append(deltaPaths, p)
					}
				}
				crashed := st.Crash(nil)
				eng.Close()
				if corruptLast && len(deltaPaths) > 0 {
					// The crash tore the newest delta file mid-write.
					p := deltaPaths[len(deltaPaths)-1]
					b, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(p, b[:len(b)*2/3], 0o644); err != nil {
						t.Fatal(err)
					}
				}

				rcfg := cfg
				rcfg.WALStorage = crashed
				rec, info, err := RecoverChain(basePath, deltaPaths, rcfg)
				if err != nil {
					t.Fatalf("RecoverChain: %v", err)
				}
				defer rec.Close()
				wantApplied := len(deltaPaths)
				if corruptLast && wantApplied > 0 {
					wantApplied--
				}
				if info.DeltaFiles != wantApplied {
					t.Fatalf("applied %d delta files, want %d", info.DeltaFiles, wantApplied)
				}
				if info.CheckpointID == 0 {
					t.Fatal("recovery reported no chain id")
				}

				ref, err := NewEngine(cfg2fresh(cfg))
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				for i := 0; i < len(batches); i++ {
					if err := ref.UpdateBatchSeq(batches[i], uint64(i+1)); err != nil {
						t.Fatal(err)
					}
				}
				if ru, fu := rec.Stats().Updates, ref.Stats().Updates; ru != fu {
					t.Fatalf("recovered %d updates, reference %d", ru, fu)
				}
				if !bytes.Equal(checkpointBytes(t, rec), checkpointBytes(t, ref)) {
					t.Fatal("chain recovery not bit-identical to never-crashed reference")
				}

				// The chain must also recover identically to a full-checkpoint
				// recovery that ignores the delta files — same log, same truth.
				rcfg2 := cfg
				rcfg2.WALStorage = crashed
				rec2, _, err := Recover(basePath, rcfg2)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer rec2.Close()
				if !bytes.Equal(checkpointBytes(t, rec), checkpointBytes(t, rec2)) {
					t.Fatal("chain recovery differs from full-checkpoint recovery")
				}
			})
		}
	}
}

// TestCompactCheckpoints folds a base + delta chain into one full
// checkpoint and checks it restores identically to the chain tip.
func TestCompactCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const numNodes = 96
	dir := t.TempDir()
	cfg := Config{NumNodes: numNodes, Seed: 5}
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.UpdateBatch(deltaTestUpdates(rng, numNodes, 300)); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.gze")
	if err := src.WriteCheckpointFile(basePath); err != nil {
		t.Fatal(err)
	}
	var deltaPaths []string
	for i := 0; i < 3; i++ {
		if err := src.UpdateBatch(deltaTestUpdates(rng, 16, 8)); err != nil {
			t.Fatal(err)
		}
		cs, err := src.SealCheckpointSince(src.Stats().LastCheckpointID)
		if err != nil {
			t.Fatal(err)
		}
		if !cs.IsDelta() {
			cs.Close()
			t.Fatalf("link %d sealed full", i)
		}
		p := filepath.Join(dir, fmt.Sprintf("delta-%06d.gzd", i))
		if err := cs.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		cs.Close()
		deltaPaths = append(deltaPaths, p)
	}
	outPath := filepath.Join(dir, "compacted.gze")
	if err := CompactCheckpoints(outPath, basePath, deltaPaths, cfg); err != nil {
		t.Fatalf("CompactCheckpoints: %v", err)
	}
	got, err := OpenCheckpoint(outPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if gu, su := got.Stats().Updates, src.Stats().Updates; gu != su {
		t.Fatalf("compacted checkpoint at %d updates, tip at %d", gu, su)
	}
	if !bytes.Equal(checkpointBytes(t, got), checkpointBytes(t, src)) {
		t.Fatal("compacted checkpoint differs from the chain tip")
	}
}

// BenchmarkDeltaCheckpoint compares sealing+streaming a delta against a
// full checkpoint at a 1% trickle: the per-checkpoint cost durability
// pays on a mostly-quiet engine.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const numNodes = 4096
	e, err := NewEngine(Config{NumNodes: numNodes, Seed: 9, DeltaCheckpointThreshold: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.UpdateBatch(deltaTestUpdates(rng, numNodes, 20000)); err != nil {
		b.Fatal(err)
	}
	trickle := func() {
		if err := e.UpdateBatch(deltaTestUpdates(rng, numNodes/100, 16)); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("full", func(b *testing.B) {
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trickle()
			buf.Reset()
			if err := e.WriteCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	b.Run("delta", func(b *testing.B) {
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trickle()
			buf.Reset()
			delta, err := e.WriteDeltaCheckpoint(&buf, e.Stats().LastCheckpointID)
			if err != nil {
				b.Fatal(err)
			}
			if !delta {
				b.Fatal("expected a delta seal")
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
}
