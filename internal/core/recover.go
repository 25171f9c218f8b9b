package core

import (
	"fmt"
	"os"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// Recovery reports what RecoverChain rebuilt beyond the checkpoint.
type Recovery struct {
	// Meta is the opaque metadata blob sealed into the checkpoint the
	// engine was restored from (nil without one) — gzserve's ingest-gate
	// snapshot lives here.
	Meta []byte
	// Seqs lists the distinct non-zero client sequence numbers of the
	// replayed WAL records, in replay (LSN) order: the batches that were
	// acked after the checkpoint's cut and survived the crash. An ingest
	// front end marks these applied so a client retry is refused instead
	// of XOR-cancelling the original.
	Seqs []uint64
	// Records and Updates count the replayed WAL suffix.
	Records uint64
	Updates uint64
	// CheckpointWALPos is the last LSN the checkpoint covered; Torn
	// reports whether the WAL scan truncated a corrupt suffix (expected
	// after a mid-write power cut, and harmless: a torn record was by
	// definition never acked under FsyncBatch).
	CheckpointWALPos uint64
	Torn             bool
	// CheckpointID is the chain id of the restored checkpoint state (the
	// tip of the applied delta chain; 0 when starting fresh).
	// DeltaFiles counts the chain deltas applied.
	CheckpointID uint64
	DeltaFiles   int
}

// RecoverChain rebuilds an engine from its durable state: restore the full
// base checkpoint at basePath, install each delta checkpoint file in
// order, then — with cfg.WAL on — replay the WAL suffix above the chain
// state reached through the normal batch path. cfg must carry the same
// WAL settings the crashed engine ran with; deployment choices (workers,
// buffering, disk placement) are free, exactly as for ReadCheckpoint. The
// result is equivalent to an engine that ingested every logged batch and
// never crashed: identical sketches, identical update count, identical
// checkpoint bytes.
//
// With the WAL on, the log is the recovery truth past the base (a delta
// never truncates it): an absent base (or empty path) starts a fresh
// engine, and the chain stops quietly at the first delta refused before
// any write — missing, corrupt, truncated or out of chain — the replay
// covering the rest. A delta whose install fails on a store fault poisons
// the engine (see Install) and is returned, never replayed over. Without
// the WAL nothing covers a link, so the base must open and every delta
// must apply: that is how a chain is folded into one checkpoint.
func RecoverChain(basePath string, deltaPaths []string, cfg Config) (*Engine, *Recovery, error) {
	var e *Engine
	var err error
	if basePath != "" || !cfg.WAL {
		if _, err = os.Stat(basePath); err == nil || !cfg.WAL {
			if e, err = OpenCheckpoint(basePath, cfg); err != nil {
				return nil, nil, fmt.Errorf("core: recovering checkpoint %s: %w", basePath, err)
			}
		} else if !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	if e == nil {
		// No base: a fresh engine holds no chain position, so no delta
		// chains onto it and the log alone recovers.
		if e, err = NewEngine(cfg); err != nil {
			return nil, nil, err
		}
	}
	applied := 0
	for _, p := range deltaPaths {
		f, err := os.Open(p)
		if err == nil {
			err = e.ApplyDeltaCheckpoint(f)
			f.Close()
		}
		if err != nil {
			if !cfg.WAL || e.err() != nil {
				e.Close()
				return nil, nil, fmt.Errorf("core: recovering chain delta %s: %w", p, err)
			}
			break
		}
		applied++
	}
	rec, err := e.recoverWAL()
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	rec.CheckpointID = e.ckptSeq.Load()
	rec.DeltaFiles = applied
	return e, rec, nil
}

// CompactChain folds a full base checkpoint file plus its ordered delta
// files into one full checkpoint file at outPath (WriteCheckpointFile's
// crash-safe discipline) that stands in for the chain tip: its sketches,
// update count, WAL coverage, metadata and checkpoint id, so a delta
// sealed against the tip applies onto the compacted file as it did onto
// the chain. The fold runs in a throwaway RAM engine without a log (cfg
// supplies deployment choices only), so nothing covers a link of the
// chain: the base must open and every delta must apply.
func CompactChain(outPath, basePath string, deltaPaths []string, cfg Config) error {
	cfg.SketchesOnDisk, cfg.Dir = false, ""
	cfg.WAL, cfg.WALStorage = false, nil
	e, _, err := RecoverChain(basePath, deltaPaths, cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	// A seal mints the id after the engine's: step back, so that it
	// re-mints the tip's.
	e.ckptSeq.Add(^uint64(0))
	return e.WriteCheckpointFile(outPath)
}

// recoverWAL replays the engine's WAL suffix above the restored
// checkpoint position through the normal batch path (nothing without a
// WAL). Called once, before the engine is shared.
func (e *Engine) recoverWAL() (*Recovery, error) {
	after := e.restoredWALPos
	rec := &Recovery{Meta: e.restoredMeta, CheckpointWALPos: after}
	if e.log == nil {
		return rec, nil
	}
	rec.Torn = e.log.Stats().RecoveredTorn
	if e.log.TailLSN() < after {
		// The checkpoint covers records the log no longer holds (its tail
		// was truncated, or the whole log was lost with the checkpoint
		// surviving). Nothing to replay, but the LSN cursor must jump
		// past the covered range so future appends can never collide with
		// LSNs the checkpoint already accounts for.
		e.log.SkipTo(after)
		return rec, nil
	}
	seen := make(map[uint64]struct{})
	edges := make([]stream.Edge, 0, 256)
	err := e.log.Replay(after, func(r wal.Record) error {
		edges = edges[:0]
		for _, up := range r.Updates {
			eg, err := e.checkEdge(up.Edge)
			if err != nil {
				return fmt.Errorf("core: wal record %d: %w", r.LSN, err)
			}
			edges = append(edges, eg)
		}
		if err := e.replayEdges(edges); err != nil {
			return fmt.Errorf("core: replaying wal record %d: %w", r.LSN, err)
		}
		rec.Records++
		rec.Updates += uint64(len(edges))
		if r.Seq != 0 {
			if _, dup := seen[r.Seq]; !dup {
				seen[r.Seq] = struct{}{}
				rec.Seqs = append(rec.Seqs, r.Seq)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}
