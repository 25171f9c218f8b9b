package core

import (
	"fmt"
	"os"

	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// Recovery reports what Recover rebuilt beyond the checkpoint.
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
	// tip of the applied delta chain for RecoverChain, the base's own id
	// otherwise; 0 when starting fresh).
	// DeltaFiles counts the chain deltas RecoverChain applied.
	CheckpointID uint64
	DeltaFiles   int
}

// Recover rebuilds an engine after a crash from its durable state: the
// checkpoint at checkpointPath (absent or empty path means start fresh)
// plus the WAL suffix above the checkpoint's covered position, replayed
// through the normal batch path. cfg must carry the same WAL settings
// the crashed engine ran with (Recover forces cfg.WAL on); deployment
// choices (workers, buffering, disk placement) are free, exactly as for
// ReadCheckpoint. The result is equivalent to an engine that ingested
// every logged batch and never crashed: identical sketches, identical
// update count, identical checkpoint bytes.
func Recover(checkpointPath string, cfg Config) (*Engine, *Recovery, error) {
	return RecoverChain(checkpointPath, nil, cfg)
}

// RecoverChain is Recover over a delta checkpoint chain: the full base
// checkpoint at basePath plus the ordered delta checkpoint files, then the
// WAL suffix above the tip of whatever prefix of the chain applied. Because
// a delta never truncates the WAL (the log stays the recovery truth past
// the base), a missing, corrupt, or out-of-chain delta file is not fatal —
// application stops at the first failure (ApplyDeltaCheckpoint is atomic,
// so the engine still holds the last good state exactly) and WAL replay
// covers the rest. The result is byte-identical to an engine that never
// crashed, exactly as for Recover.
func RecoverChain(basePath string, deltaPaths []string, cfg Config) (*Engine, *Recovery, error) {
	cfg.WAL = true
	var e *Engine
	var err error
	if basePath != "" {
		if _, statErr := os.Stat(basePath); statErr == nil {
			e, err = OpenCheckpoint(basePath, cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("core: recovering checkpoint %s: %w", basePath, err)
			}
		} else if !os.IsNotExist(statErr) {
			return nil, nil, statErr
		}
	}
	applied := 0
	if e != nil {
		for _, p := range deltaPaths {
			f, openErr := os.Open(p)
			if openErr != nil {
				break
			}
			applyErr := e.ApplyDeltaCheckpoint(f)
			f.Close()
			if applyErr != nil {
				break
			}
			applied++
		}
	}
	if e == nil {
		if e, err = NewEngine(cfg); err != nil {
			return nil, nil, err
		}
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

// recoverWAL replays the engine's WAL suffix above the restored
// checkpoint position through the normal batch path. Called once, before
// the engine is shared, on an engine whose WAL is open.
func (e *Engine) recoverWAL() (*Recovery, error) {
	if e.log == nil {
		return nil, fmt.Errorf("core: recovery requires the WAL enabled")
	}
	after := e.restoredWALPos
	rec := &Recovery{
		Meta:             e.restoredMeta,
		CheckpointWALPos: after,
		Torn:             e.log.Stats().RecoveredTorn,
	}
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
