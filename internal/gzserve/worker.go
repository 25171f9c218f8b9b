package gzserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/core"
)

// Worker endpoints. Request and response bodies on the binary endpoints
// are GZW1 frames; /v1/info and /statsz speak JSON.
const (
	PathIngest     = "/v1/ingest"
	PathCheckpoint = "/v1/checkpoint"
	PathInfo       = "/v1/info"
	PathStatsz     = "/statsz"
)

// Info describes a server's engine parameters; clients fetch it once to
// fail fast on incompatible clusters instead of at the first merge.
type Info struct {
	Role        string `json:"role"` // "worker" or "coordinator"
	WireVersion int    `json:"wire_version"`
	NumNodes    uint32 `json:"num_nodes"`
	Seed        uint64 `json:"seed"`
	Columns     int    `json:"columns"`
	Rounds      int    `json:"rounds"`
	// RangeLo/RangeHi is the node range this worker sketches: its engine
	// holds only those nodes, it refuses an update with neither endpoint
	// inside, and a coordinator refuses a worker whose range is not the
	// one its partition assigns (the whole universe on a coordinator).
	RangeLo uint32 `json:"range_lo"`
	RangeHi uint32 `json:"range_hi"`
}

// WorkerStats is the /statsz document of a worker: its engine statistics
// plus the ingest endpoint's batch accounting.
type WorkerStats struct {
	// Batches and Updates count applied (non-duplicate) ingest frames and
	// the updates they carried; Duplicates counts frames dropped by
	// sequence-number dedup (retries of already-applied sends).
	Batches    uint64 `json:"batches"`
	Updates    uint64 `json:"updates"`
	Duplicates uint64 `json:"duplicates"`
	// SeqLowWater is the highest sequence number below which everything
	// has been applied.
	SeqLowWater uint64 `json:"seq_low_water"`
	// Durable reports whether the worker logs to a WAL; on a durable
	// worker RecoveredBatches/RecoveredUpdates count the WAL suffix the
	// current process replayed at startup (zero after a clean restart).
	Durable          bool   `json:"durable,omitempty"`
	RecoveredBatches uint64 `json:"recovered_batches,omitempty"`
	RecoveredUpdates uint64 `json:"recovered_updates,omitempty"`
	// LastCheckpointID and LastCheckpointLSN identify the most recent
	// seal: the checkpoint chain id it minted and the WAL position it
	// covers. SealStallNanos accumulates the ingest-excluded seal windows
	// across every checkpoint this worker served (local files and
	// /v1/checkpoint pulls) — the total time ingestion stalled for
	// durability, the number delta checkpoints exist to shrink.
	LastCheckpointID  uint64     `json:"last_checkpoint_id,omitempty"`
	LastCheckpointLSN uint64     `json:"last_checkpoint_lsn,omitempty"`
	SealStallNanos    uint64     `json:"seal_stall_nanos,omitempty"`
	Engine            core.Stats `json:"engine"`
}

// Worker owns one partition's engine — the sketches of its node range
// only — and serves the batch-ingest, checkpoint, info and stats
// endpoints. It answers no queries: its range alone cannot. Create with NewWorker, expose
// via Handler on any http.Server, and Close when done (after the HTTP
// server has shut down).
//
// Idempotency: every ingest frame carries a client-assigned sequence
// number. The worker applies each sequence number at most once — a
// retry of a send whose ack was lost is acknowledged as a duplicate
// without touching the sketches. That is what makes retry safe over XOR
// sketches, where a double-apply would cancel the batch. Sequence
// numbers are tracked per worker process (one coordinator per cluster);
// numbering starts at 1.
type Worker struct {
	eng     *core.Engine
	rangeLo uint32
	rangeHi uint32

	gate *seqGate

	// Durable-worker state (NewDurableWorker): the checkpoint file the
	// periodic loop and graceful shutdown write, and the startup recovery
	// summary. Nil/zero on plain workers. diskCkptID and deltaFiles track
	// the on-disk checkpoint chain — the full checkpoint.gze plus the
	// ordered delta-*.gzd files chained onto it — and are guarded by
	// ckptMu, like every chain-file mutation.
	durable    bool
	ckptPath   string
	ckptMu     sync.Mutex // serializes CheckpointLocal callers
	stopCkpt   chan struct{}
	ckptWG     sync.WaitGroup
	closeOnce  sync.Once
	recovered  core.Recovery
	diskCkptID uint64
	deltaFiles []string

	batches   atomic.Uint64
	updates   atomic.Uint64
	dups      atomic.Uint64
	sealStall atomic.Int64
	closed    atomic.Bool
}

// Durability configures a worker that survives crashes: every acked
// ingest batch is in the write-ahead log before the ack leaves, and
// NewDurableWorker rebuilds the worker from checkpoint + log on restart.
// The log's settings (core.Config.WALFsync, WALFsyncInterval,
// WALSegmentBytes) and DeltaCheckpointThreshold come from the engine
// config NewDurableWorker is given.
type Durability struct {
	// StateDir holds the worker's durable state: CheckpointFileName plus
	// a wal/ segment directory. Required; created if absent. Each worker
	// needs its own directory.
	StateDir string
	// CheckpointInterval, when positive, checkpoints the engine to
	// StateDir on a background timer; each checkpoint truncates the
	// covered log prefix, bounding both log growth and recovery time.
	// Zero means checkpoints happen only on Close (and via
	// CheckpointLocal).
	CheckpointInterval time.Duration
}

// maxDeltaChain bounds consecutive delta checkpoint files between full
// checkpoints in a durable worker's state directory. Once the chain is
// that long the next local checkpoint is sealed full, which truncates the
// WAL and retires the chain — bounding both recovery work (base + chain +
// log suffix) and state-directory growth. A negative
// core.Config.DeltaCheckpointThreshold makes every checkpoint full.
const maxDeltaChain = 8

// CheckpointFileName is the checkpoint file a durable worker maintains
// inside its state directory; DeltaFilePattern names the delta chain
// files written after it (ordered by their zero-padded sequence number).
const (
	CheckpointFileName = "checkpoint.gze"
	DeltaFilePattern   = "delta-*.gzd"
)

// NewWorker builds a worker over a fresh engine from cfg that owns the
// node range [rangeLo, rangeHi) (core.Config.Range; use 0, NumNodes for
// a single-worker cluster).
func NewWorker(cfg core.Config, rangeLo, rangeHi uint32) (*Worker, error) {
	cfg.Range = core.NodeRange{Lo: rangeLo, Hi: rangeHi}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Worker{
		eng:     eng,
		rangeLo: rangeLo,
		rangeHi: rangeHi,
		gate:    newSeqGate(),
	}, nil
}

// NewDurableWorker builds (or, after a crash, rebuilds) a worker whose
// accepted batches survive process death. It recovers the engine from
// d.StateDir — latest checkpoint plus the WAL suffix — and restores the
// ingest dedup gate from the checkpoint's metadata plus the client
// sequence numbers carried by the replayed log records, so a client
// retrying a batch the dead process had acked is answered with a
// duplicate ack instead of XOR-cancelling the original apply. The
// returned Recovery reports what was replayed.
//
// cfg's WAL is switched on, its log placed under d.StateDir (unless
// cfg.WALStorage overrides it) and its Range set from rangeLo/Hi as for
// NewWorker; its other WAL fields (fsync policy, period, segment size) and
// DeltaCheckpointThreshold apply as given. Everything else (NumNodes,
// Seed, sharding, buffering) must match what the crashed worker ran with,
// exactly as for core.RecoverChain.
func NewDurableWorker(cfg core.Config, rangeLo, rangeHi uint32, d Durability) (*Worker, *core.Recovery, error) {
	cfg.Range = core.NodeRange{Lo: rangeLo, Hi: rangeHi}
	if d.StateDir == "" {
		return nil, nil, fmt.Errorf("gzserve: Durability.StateDir is required")
	}
	if err := os.MkdirAll(d.StateDir, 0o777); err != nil {
		return nil, nil, err
	}
	cfg.WAL = true
	if cfg.WALStorage == nil {
		cfg.WALDir = filepath.Join(d.StateDir, "wal")
	}
	ckptPath := filepath.Join(d.StateDir, CheckpointFileName)
	deltas, err := filepath.Glob(filepath.Join(d.StateDir, DeltaFilePattern))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(deltas)
	eng, rec, err := core.RecoverChain(ckptPath, deltas, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Chain files recovery could not apply (missing base, corruption, a
	// break in the chain) are dead weight: the WAL replay above already
	// covers everything they held, and the next full checkpoint would
	// orphan them anyway.
	for _, p := range deltas[rec.DeltaFiles:] {
		os.Remove(p)
	}
	gate := newSeqGate()
	if err := gate.restore(rec.Meta); err != nil {
		eng.Close()
		return nil, nil, err
	}
	gate.markApplied(rec.Seqs)
	wk := &Worker{
		eng:        eng,
		rangeLo:    rangeLo,
		rangeHi:    rangeHi,
		gate:       gate,
		durable:    true,
		ckptPath:   ckptPath,
		stopCkpt:   make(chan struct{}),
		recovered:  *rec,
		diskCkptID: rec.CheckpointID,
		deltaFiles: deltas[:rec.DeltaFiles:rec.DeltaFiles],
	}
	// The hook runs inside the engine's ingest path, after the batch's
	// WAL append succeeds and before the quiesce lock is released — the
	// one place where "logged" and "marked applied" are atomic with
	// respect to a checkpoint seal, so a sealed gate snapshot covers
	// exactly the seqs whose records the checkpoint's WAL position does.
	eng.SetLoggedHook(func(seq uint64) {
		if seq != 0 {
			gate.Commit(seq)
		}
	})
	eng.SetCheckpointMeta(gate.snapshot)
	if d.CheckpointInterval > 0 {
		wk.ckptWG.Add(1)
		go wk.checkpointLoop(d.CheckpointInterval)
	}
	return wk, rec, nil
}

// CheckpointLocal advances the worker's on-disk checkpoint chain
// (atomically, via rename). While the chain is shorter than
// maxDeltaChain and few enough nodes changed since the previous seal,
// that means appending a sparse delta-NNNNNN.gzd file — which never
// touches the WAL, since the log past the full base is what recovers a
// lost or corrupt delta. Otherwise it writes a full checkpoint.gze,
// truncates the WAL prefix it covers, and deletes the now-subsumed
// delta files. Durable workers only.
func (wk *Worker) CheckpointLocal() error {
	if !wk.durable {
		return fmt.Errorf("gzserve: worker has no durable state directory")
	}
	wk.ckptMu.Lock()
	defer wk.ckptMu.Unlock()
	return wk.checkpointLocked(false)
}

// checkpointLocked writes the next chain file; forceFull skips the delta
// attempt (shutdown wants a lone full checkpoint so restart recovers
// without replay). Caller holds ckptMu.
func (wk *Worker) checkpointLocked(forceFull bool) error {
	since := uint64(0)
	if !forceFull && len(wk.deltaFiles) < maxDeltaChain {
		since = wk.diskCkptID
	}
	start := time.Now()
	cs, err := wk.eng.SealCheckpointSince(since)
	wk.sealStall.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return err
	}
	defer cs.Close()
	if cs.IsDelta() {
		p := filepath.Join(filepath.Dir(wk.ckptPath), fmt.Sprintf("delta-%06d.gzd", len(wk.deltaFiles)))
		if err := cs.WriteFile(p); err != nil {
			return err
		}
		wk.deltaFiles = append(wk.deltaFiles, p)
		wk.diskCkptID = cs.ID()
		return nil
	}
	if err := cs.WriteFile(wk.ckptPath); err != nil {
		return err
	}
	// Only a durable full checkpoint licenses truncation and retires the
	// chain — order matters: the rename above landed first.
	wk.eng.TruncateWALThrough(cs.WALPos())
	for _, p := range wk.deltaFiles {
		os.Remove(p)
	}
	wk.deltaFiles = wk.deltaFiles[:0]
	wk.diskCkptID = cs.ID()
	return nil
}

// checkpointLoop is the periodic local-checkpoint goroutine.
func (wk *Worker) checkpointLoop(every time.Duration) {
	defer wk.ckptWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-wk.stopCkpt:
			return
		case <-t.C:
			if err := wk.CheckpointLocal(); errors.Is(err, core.ErrClosed) {
				return
			}
		}
	}
}

// Engine exposes the underlying engine (tests and in-process callers).
func (wk *Worker) Engine() *core.Engine { return wk.eng }

// Stats snapshots the worker's /statsz document.
func (wk *Worker) Stats() WorkerStats {
	est := wk.eng.Stats()
	return WorkerStats{
		SeqLowWater:       wk.gate.LowWater(),
		Batches:           wk.batches.Load(),
		Updates:           wk.updates.Load(),
		Duplicates:        wk.dups.Load(),
		Durable:           wk.durable,
		RecoveredBatches:  wk.recovered.Records,
		RecoveredUpdates:  wk.recovered.Updates,
		LastCheckpointID:  est.LastCheckpointID,
		LastCheckpointLSN: est.LastCheckpointWALLSN,
		SealStallNanos:    uint64(wk.sealStall.Load()),
		Engine:            est,
	}
}

// Close drains and releases the engine. A durable worker first stops
// the checkpoint loop and writes a final checkpoint, so a graceful
// restart recovers from the checkpoint alone with an empty log suffix.
// Call after the HTTP server serving Handler has stopped.
func (wk *Worker) Close() error {
	wk.closed.Store(true)
	var ckptErr error
	if wk.durable {
		wk.closeOnce.Do(func() { close(wk.stopCkpt) })
		wk.ckptWG.Wait()
		// The shutdown checkpoint is always full: it retires the delta
		// chain and truncates the log, so a graceful restart recovers from
		// one file with nothing to replay.
		wk.ckptMu.Lock()
		err := wk.checkpointLocked(true)
		wk.ckptMu.Unlock()
		if err != nil && !errors.Is(err, core.ErrClosed) {
			ckptErr = fmt.Errorf("gzserve: shutdown checkpoint: %w", err)
		}
	}
	return errors.Join(ckptErr, wk.eng.Close())
}

// Handler returns the worker's HTTP routes: ingest, checkpoint, info and
// stats.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathIngest, wk.handleIngest)
	mux.HandleFunc("GET "+PathCheckpoint, wk.handleCheckpoint)
	mux.HandleFunc("GET "+PathInfo, wk.handleInfo)
	mux.HandleFunc("GET "+PathStatsz, wk.handleStatsz)
	return mux
}

// writeWireError sends a typed MsgError frame alongside the HTTP status.
func writeWireError(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	w.Header().Set("Content-Type", "application/x-gzw1")
	w.WriteHeader(status)
	WriteFrame(w, MsgError, EncodeError(code, msg))
}

// wireErrorStatus maps a decode failure onto (HTTP status, error code).
func wireErrorStatus(err error) (int, ErrorCode) {
	switch {
	case errors.Is(err, ErrVersionMismatch):
		return http.StatusBadRequest, CodeIncompatible
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

func (wk *Worker) handleIngest(w http.ResponseWriter, r *http.Request) {
	typ, payload, err := ReadFrame(http.MaxBytesReader(w, r.Body, frameHeaderLen+maxFramePayload))
	if err != nil {
		status, code := wireErrorStatus(err)
		writeWireError(w, status, code, err.Error())
		return
	}
	if typ != MsgIngest {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("got %s frame, want %s", typ, MsgIngest))
		return
	}
	seq, ups, err := DecodeIngest(payload)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if wk.closed.Load() {
		writeWireError(w, http.StatusServiceUnavailable, CodeClosed, "worker shutting down")
		return
	}
	// Validate every edge before touching the gate or the engine — an
	// edge with neither endpoint in this worker's range included — so the
	// only failures UpdateBatch can hit below are ErrClosed (checked
	// before anything buffers) or a post-buffer engine error — never a
	// validation error for a batch that is safe to resend.
	for _, up := range ups {
		if err := wk.eng.CheckEdge(up.Edge); err != nil {
			writeWireError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}

	// Dedup gate: claim the sequence number before applying, release or
	// commit it after, so a retry can never double-apply and a retry
	// racing its own original gets "busy" instead of a second apply.
	switch wk.gate.Claim(seq) {
	case claimDup:
		wk.dups.Add(1)
		wk.writeAck(w, seq, false)
		return
	case claimBusy:
		writeWireError(w, http.StatusServiceUnavailable, CodeBusy,
			fmt.Sprintf("sequence %d is being applied", seq))
		return
	}

	// On a durable worker the batch goes through the sequence-carrying
	// path: the engine appends it (with seq) to the WAL before buffering,
	// and the logged hook commits the gate the instant the record is
	// durable — so the ack below really means "logged".
	if wk.durable {
		err = wk.eng.UpdateBatchSeq(ups, seq)
	} else {
		err = wk.eng.UpdateBatch(ups)
	}
	if err != nil {
		if errors.Is(err, core.ErrClosed) {
			// Nothing was buffered or logged: the closed check precedes both,
			// so the seq can be released for a (futile but harmless) retry.
			wk.gate.Release(seq)
			writeWireError(w, http.StatusServiceUnavailable, CodeClosed, err.Error())
			return
		}
		if wk.durable && !wk.gate.settleFailed(seq) {
			// The failure happened before the WAL append: nothing durable,
			// nothing buffered, and the claim is released — a retry is safe
			// and may succeed (e.g. after a transient I/O error).
			writeWireError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		// Past validation and the closed check, a failure means the batch
		// may already sit in the ingest pipeline (the engine's error is a
		// sticky async worker fault, not proof this batch was dropped).
		// Commit the seq so a resend is deduplicated instead of XOR-ing
		// the batch out of the sketches, and tell the client not to retry.
		wk.gate.Commit(seq)
		writeWireError(w, http.StatusInternalServerError, CodeFailed, err.Error())
		return
	}

	wk.gate.Commit(seq)
	wk.batches.Add(1)
	wk.updates.Add(uint64(len(ups)))
	wk.writeAck(w, seq, true)
}

func (wk *Worker) writeAck(w http.ResponseWriter, seq uint64, applied bool) {
	w.Header().Set("Content-Type", "application/x-gzw1")
	WriteFrame(w, MsgAck, EncodeAck(seq, applied))
}

// handleCheckpoint seals a consistent cut and streams it as one
// length-prefixed MsgCheckpoint frame. The seal excludes ingestion only
// for drain + snapshot; the network transfer runs with ingestion live.
// The seal precedes the response header, so a caller holding the header
// knows the cut is taken — the coordinator's refresh barrier rests on it.
// A ?since=<id> query asks for a sparse delta checkpoint against the
// checkpoint this worker previously sealed under that chain id; the
// response's X-GZ-Checkpoint-Delta header reports whether the worker
// obliged (it falls back to a full checkpoint when the base is unknown
// — e.g. after a restart that re-minted the chain — or too many nodes
// changed), and X-GZ-Checkpoint-ID carries the new cut's chain id for
// the caller's next since.
func (wk *Worker) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil {
			writeWireError(w, http.StatusBadRequest, CodeBadRequest, "since must be a checkpoint chain id")
			return
		}
		since = v
	}
	start := time.Now()
	cs, err := wk.eng.SealCheckpointSince(since)
	wk.sealStall.Add(time.Since(start).Nanoseconds())
	if err != nil {
		code := CodeInternal
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			code, status = CodeClosed, http.StatusServiceUnavailable
		}
		writeWireError(w, status, code, err.Error())
		return
	}
	defer cs.Close()
	size := cs.Size()
	if size > maxPayloadFor(MsgCheckpoint) {
		// Surface a typed error the coordinator can report, rather than an
		// empty 200 it could only diagnose as a truncated frame. Resending
		// cannot help: the engine has outgrown the wire format's frame cap.
		writeWireError(w, http.StatusInternalServerError, CodeFailed,
			fmt.Sprintf("checkpoint is %d bytes, exceeds the %d-byte frame cap", size, maxPayloadFor(MsgCheckpoint)))
		return
	}
	w.Header().Set("Content-Type", "application/x-gzw1")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", int64(frameHeaderLen)+size))
	w.Header().Set("X-GZ-Updates", fmt.Sprintf("%d", cs.Updates()))
	w.Header().Set("X-GZ-Checkpoint-ID", fmt.Sprintf("%d", cs.ID()))
	if cs.IsDelta() {
		w.Header().Set("X-GZ-Checkpoint-Delta", "1")
	}
	if err := WriteFrameHeader(w, MsgCheckpoint, size); err != nil {
		return
	}
	// Errors past this point cannot change the HTTP status; the receiver
	// detects the short body against the declared frame length.
	cs.StreamTo(w)
}

func (wk *Worker) handleInfo(w http.ResponseWriter, r *http.Request) {
	cfg := wk.eng.Config()
	writeJSON(w, Info{
		Role:        "worker",
		WireVersion: WireVersion,
		NumNodes:    cfg.NumNodes,
		Seed:        cfg.Seed,
		Columns:     cfg.Columns,
		Rounds:      cfg.Rounds,
		RangeLo:     wk.rangeLo,
		RangeHi:     wk.rangeHi,
	})
}

func (wk *Worker) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, wk.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
