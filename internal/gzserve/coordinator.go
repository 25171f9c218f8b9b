package gzserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// Coordinator endpoints beyond the worker set (the coordinator also
// serves PathIngest, PathInfo and PathStatsz).
const (
	PathRefresh    = "/v1/refresh"
	PathComponents = "/v1/components"
	PathForest     = "/v1/forest"
	PathConnected  = "/v1/connected"
)

// CoordinatorConfig parameterizes a coordinator.
type CoordinatorConfig struct {
	// Engine carries the cluster-wide engine parameters (NumNodes and
	// Seed required; every worker must have been started with the same
	// NumNodes/Seed/Columns/Rounds or /v1/info validation fails). The
	// aggregator engine queries run on is built from it, always in RAM.
	Engine core.Config
	// Workers is the base URL of every worker, in partition order.
	Workers []string
	// BatchSize is the per-worker dispatch threshold in updates
	// (default 4096): a worker's pending buffer ships when it fills.
	BatchSize int
	// Client tunes every worker connection (window, retries, transport).
	Client ClientConfig
	// MergeInterval, when positive, refreshes the merged view
	// periodically in the background; queries between refreshes answer
	// from the last merged checkpoint cut.
	MergeInterval time.Duration
	// SkipValidate skips the startup /v1/info compatibility handshake
	// (tests that fake workers).
	SkipValidate bool
	// NoDeltaRefresh disables incremental refresh. By default the
	// coordinator retains a per-worker mirror engine of each worker's
	// last acknowledged checkpoint and asks /v1/checkpoint?since=<id>
	// for a sparse delta on the next pull; when every worker obliges,
	// Refresh patches only the changed node sketches into the live merged
	// view instead of re-shipping and re-merging every worker's full
	// state. The mirrors cost one extra in-RAM engine per worker; set
	// NoDeltaRefresh to trade that memory back for full pulls every
	// round.
	NoDeltaRefresh bool
}

// CoordStats is the coordinator's /statsz document.
type CoordStats struct {
	// Accepted counts updates taken in by Ingest; AcceptedBatches the
	// ingest calls (network or in-process) that carried them.
	Accepted        uint64 `json:"accepted"`
	AcceptedBatches uint64 `json:"accepted_batches"`
	// Merges counts refreshes; the Last* fields describe the most recent
	// one: wall time of the pull+merge, the summed stream positions of
	// the merged worker cuts, and its completion time. DeltaRefreshes
	// counts the refreshes that ran the incremental path — every worker
	// shipped a sparse delta and the merged view was patched in place
	// rather than rebuilt.
	Merges           uint64 `json:"merges"`
	DeltaRefreshes   uint64 `json:"delta_refreshes"`
	LastMergeNanos   uint64 `json:"last_merge_nanos"`
	LastMergeUpdates uint64 `json:"last_merge_updates"`
	// Workers is each connection's send/retry/duplicate/in-flight
	// accounting, in partition order.
	Workers []ClientStats `json:"workers"`
}

// aggView is one immutable merged result the query path answers from.
type aggView struct {
	eng     *core.Engine
	updates uint64 // summed worker cut positions
}

// Coordinator partitions incoming edge batches by node range across the
// cluster's workers, pipelines the sends, and answers global queries by
// merging the workers' checkpoints into an aggregator engine. Ingest
// and queries are safe for concurrent use; queries reflect the last
// merged checkpoint (call Refresh, or set MergeInterval, to advance it).
type Coordinator struct {
	cfg     CoordinatorConfig
	part    *Partitioner
	clients []*Client

	// lifeCtx governs forwarded sends: a batch accepted by Ingest keeps
	// flowing to its worker after the accepting call (or HTTP request)
	// returns, until the coordinator itself closes.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex // guards pending and splitBufs
	pending [][]stream.Update

	gate *seqGate // dedup for the network ingest endpoint

	aggMu sync.RWMutex // held for write while swapping the merged view
	agg   *aggView

	// refreshMu serializes Refresh end to end. mirrors[i] (guarded by
	// refreshMu) is an in-RAM engine holding worker i's last acknowledged
	// checkpoint state under the worker's own chain identity, and
	// mirrorIDs[i] that cut's chain id: the base the next pull's
	// ?since=<id> names, and the state the worker's delta is applied to.
	// Nil entries mean no acknowledged base (first refresh, a full-pull
	// round, or NoDeltaRefresh).
	refreshMu sync.Mutex
	mirrors   []*core.Engine
	mirrorIDs []uint64

	accepted     atomic.Uint64
	acceptedB    atomic.Uint64
	merges       atomic.Uint64
	deltaRefr    atomic.Uint64
	lastMergeNs  atomic.Uint64
	lastMergeUpd atomic.Uint64

	closed   atomic.Bool
	loopStop chan struct{}
	loopDone chan struct{}
}

// NewCoordinator connects to cfg.Workers, validates engine-parameter
// compatibility with each (unless SkipValidate), and returns a ready
// coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("gzserve: coordinator needs at least one worker")
	}
	if cfg.Engine.NumNodes < 2 {
		return nil, errors.New("gzserve: coordinator needs Engine.NumNodes >= 2")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4096
	}
	part, err := NewRangePartitioner(cfg.Engine.NumNodes, len(cfg.Workers))
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:       cfg,
		part:      part,
		pending:   make([][]stream.Update, len(cfg.Workers)),
		gate:      newSeqGate(),
		mirrors:   make([]*core.Engine, len(cfg.Workers)),
		mirrorIDs: make([]uint64, len(cfg.Workers)),
	}
	co.lifeCtx, co.lifeCancel = context.WithCancel(context.Background())
	for _, addr := range cfg.Workers {
		co.clients = append(co.clients, NewClient(addr, cfg.Client))
	}
	if !cfg.SkipValidate {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, cl := range co.clients {
			info, err := cl.Info(ctx)
			if err != nil {
				return nil, fmt.Errorf("gzserve: worker %d (%s): %w", i, cl.Addr(), err)
			}
			if info.NumNodes != cfg.Engine.NumNodes || info.Seed != cfg.Engine.Seed {
				return nil, fmt.Errorf("gzserve: worker %d (%s) runs nodes=%d seed=%d, cluster wants nodes=%d seed=%d: %w",
					i, cl.Addr(), info.NumNodes, info.Seed, cfg.Engine.NumNodes, cfg.Engine.Seed, ErrVersionMismatch)
			}
		}
	}
	if cfg.MergeInterval > 0 {
		co.loopStop = make(chan struct{})
		co.loopDone = make(chan struct{})
		go co.mergeLoop()
	}
	return co, nil
}

func (co *Coordinator) mergeLoop() {
	defer close(co.loopDone)
	t := time.NewTicker(co.cfg.MergeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.loopStop:
			return
		case <-t.C:
			co.Refresh(context.Background())
		}
	}
}

// Ingest accepts a batch of updates, partitions it by node range, and
// pipelines full per-worker sub-batches to their workers. Forwarding
// continues after Ingest returns (it is bounded by the coordinator's
// lifetime, not the call). A non-nil error (ErrClosed) means the batch
// was NOT accepted and may safely be resent; asynchronous send failures
// surface on Flush and Refresh instead, never here — an accepted batch
// must not look retryable, or a resend would double-apply into the XOR
// sketches.
func (co *Coordinator) Ingest(ups []stream.Update) error {
	if co.closed.Load() {
		return core.ErrClosed
	}
	co.accepted.Add(uint64(len(ups)))
	co.acceptedB.Add(1)
	co.mu.Lock()
	for _, u := range ups {
		i := co.part.Part(u)
		co.pending[i] = append(co.pending[i], u)
		if len(co.pending[i]) >= co.cfg.BatchSize {
			co.clients[i].SendAsync(co.lifeCtx, co.pending[i])
			co.pending[i] = co.pending[i][:0]
		}
	}
	co.mu.Unlock()
	return nil
}

// Flush ships every pending sub-batch and waits for all in-flight sends
// to be acknowledged.
func (co *Coordinator) Flush() error {
	co.mu.Lock()
	for i := range co.pending {
		if len(co.pending[i]) > 0 {
			co.clients[i].SendAsync(co.lifeCtx, co.pending[i])
			co.pending[i] = co.pending[i][:0]
		}
	}
	co.mu.Unlock()
	var first error
	for _, cl := range co.clients {
		if err := cl.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ramCfg is the engine configuration mirrors and aggregators are built
// from: the cluster parameters, forced into RAM with no WAL.
func (co *Coordinator) ramCfg() core.Config {
	cfg := co.cfg.Engine
	cfg.SketchesOnDisk = false
	cfg.Dir = ""
	cfg.WAL = false
	cfg.WALStorage = nil
	return cfg
}

// checkpointPull is one worker's buffered /v1/checkpoint response.
type checkpointPull struct {
	buf  *bytes.Buffer
	pull CheckpointPull
}

// pullCheckpoints pulls every worker's checkpoint concurrently (each
// worker seals its own cut and streams with ingestion live), buffering
// the bodies. since[i] is the chain id sent as ?since= (nil means full
// pulls everywhere).
func (co *Coordinator) pullCheckpoints(ctx context.Context, since []uint64) ([]checkpointPull, error) {
	pulls := make([]checkpointPull, len(co.clients))
	errs := make([]error, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			var s uint64
			if since != nil {
				s = since[i]
			}
			rc, pull, err := cl.Checkpoint(ctx, s)
			if err != nil {
				errs[i] = err
				return
			}
			defer rc.Close()
			// The frame header declared the body's length (within the
			// frame cap): size the buffer once instead of re-growing it
			// through every doubling on the way, plus ReadFrom's MinRead
			// headroom so the final read that reports EOF does not grow it
			// once more.
			var buf bytes.Buffer
			if size := pull.Bytes + bytes.MinRead; size <= math.MaxInt {
				buf.Grow(int(size))
			}
			if _, err := buf.ReadFrom(rc); err != nil {
				errs[i] = err
				return
			}
			pulls[i] = checkpointPull{buf: &buf, pull: pull}
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gzserve: pulling checkpoint from worker %d (%s): %w", i, co.clients[i].Addr(), err)
		}
	}
	return pulls, nil
}

// Refresh drains the send pipeline, pulls a sealed checkpoint from every
// worker in parallel, and advances the view queries answer from to the
// combined cut; the cut contains every update Ingest had accepted before
// Refresh began. When possible the advance is incremental: the
// coordinator asks each worker for a delta since its last acknowledged
// checkpoint, and if every worker obliges, only the changed node
// sketches are shipped and patched — XOR-ing each replaced slot out of
// the live merged view and its replacement in, with the replaced slots
// feeding the incremental-query baseline, so a following query runs
// delta Boruvka over exactly the patched nodes. Any worker answering
// with a full checkpoint (restart, aged-out base, too much churn) — or
// NoDeltaRefresh — falls back to the full path: rebuild a fresh
// aggregator from complete checkpoints and swap it in atomically.
func (co *Coordinator) Refresh(ctx context.Context) error {
	if err := co.Flush(); err != nil {
		return err
	}
	co.refreshMu.Lock()
	defer co.refreshMu.Unlock()
	start := time.Now()

	co.aggMu.RLock()
	old := co.agg
	co.aggMu.RUnlock()

	// Ask for deltas only when every worker has an acknowledged base and
	// there is a live view to patch.
	var since []uint64
	if !co.cfg.NoDeltaRefresh && old != nil {
		since = make([]uint64, len(co.clients))
		for i, m := range co.mirrors {
			if m == nil {
				since = nil
				break
			}
			since[i] = co.mirrorIDs[i]
		}
	}
	pulls, err := co.pullCheckpoints(ctx, since)
	if err != nil {
		return err
	}

	allDelta := since != nil
	var cutSum uint64
	for _, p := range pulls {
		cutSum += p.pull.Updates
		allDelta = allDelta && p.pull.Delta
	}

	if allDelta {
		ok, err := co.applyDeltaRefresh(old, pulls, cutSum)
		if err != nil {
			return err
		}
		if ok {
			co.merges.Add(1)
			co.deltaRefr.Add(1)
			co.lastMergeNs.Store(uint64(time.Since(start).Nanoseconds()))
			co.lastMergeUpd.Store(cutSum)
			return nil
		}
	}
	if since != nil {
		// Either some worker declined the delta (dirtied past its
		// threshold, restarted with a new lineage) or a delta failed to
		// chain onto its mirror. The pulled buffers are unusable for a
		// rebuild — a delta stream cannot be merged on its own — and
		// nothing was patched into the view; re-pull everything full.
		pulls, err = co.pullCheckpoints(ctx, nil)
		if err != nil {
			return err
		}
		cutSum = 0
		for _, p := range pulls {
			cutSum += p.pull.Updates
		}
	}

	if err := co.fullRefresh(old, pulls, cutSum); err != nil {
		return err
	}
	co.merges.Add(1)
	co.lastMergeNs.Store(uint64(time.Since(start).Nanoseconds()))
	co.lastMergeUpd.Store(cutSum)
	return nil
}

// applyDeltaRefresh runs the incremental path: chain each worker's delta
// onto its mirror, collecting the replaced slots, then patch them all
// into the live merged view. Mirrors advance first and the view is only
// touched once every delta chained cleanly, so ok=false (some delta did
// not chain) leaves the view exactly as it was and the caller falls back
// to a full round. Caller holds refreshMu.
func (co *Coordinator) applyDeltaRefresh(view *aggView, pulls []checkpointPull, cutSum uint64) (ok bool, err error) {
	type patch struct {
		ids           []uint32
		before, after []byte
	}
	patches := make([]patch, len(pulls))
	for i, p := range pulls {
		pt := &patches[i]
		err := co.mirrors[i].ApplyDeltaCheckpoint(bytes.NewReader(p.buf.Bytes()), func(node uint32, before, after []byte) {
			pt.ids = append(pt.ids, node)
			pt.before = append(pt.before, before...)
			pt.after = append(pt.after, after...)
		})
		if err != nil {
			if errors.Is(err, core.ErrCheckpointChain) {
				return false, nil
			}
			return false, fmt.Errorf("gzserve: applying delta from worker %d (%s): %w", i, co.clients[i].Addr(), err)
		}
		co.mirrorIDs[i] = p.pull.ID
	}
	// Every mirror advanced; patch the view in place. PatchNodes XORs the
	// old slot out and the new one in under the engine's quiesce lock, so
	// concurrent queries see either the old cut or the new one, and marks
	// each patched node dirty for the incremental-query path.
	for i := range patches {
		pt := &patches[i]
		if err := view.eng.PatchNodes(pt.ids, pt.before, pt.after, cutSum); err != nil {
			return false, fmt.Errorf("gzserve: patching merged view from worker %d: %w", i, err)
		}
	}
	co.aggMu.Lock()
	co.agg = &aggView{eng: view.eng, updates: cutSum}
	co.aggMu.Unlock()
	return true, nil
}

// fullRefresh rebuilds the merged view from complete worker checkpoints
// and swaps it in, rebuilding the per-worker mirrors alongside (from the
// same buffered bytes, so each worker is pulled once). Caller holds
// refreshMu.
func (co *Coordinator) fullRefresh(old *aggView, pulls []checkpointPull, cutSum uint64) error {
	sources := make([]CheckpointSource, len(pulls))
	for i, p := range pulls {
		b := p.buf.Bytes()
		sources[i] = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b)), nil }
	}
	agg, err := Aggregate(co.cfg.Engine, sources)
	if err != nil {
		return err
	}
	if !co.cfg.NoDeltaRefresh {
		// Rebuild each mirror from the full checkpoint it just shipped:
		// ReadCheckpoint restores the worker's exact sealed state and
		// adopts its chain identity, which is what lets the next round's
		// delta chain onto the mirror.
		for i, p := range pulls {
			m, err := core.ReadCheckpoint(bytes.NewReader(p.buf.Bytes()), co.ramCfg())
			if err != nil {
				agg.Close()
				return fmt.Errorf("gzserve: mirroring checkpoint from worker %d (%s): %w", i, co.clients[i].Addr(), err)
			}
			if co.mirrors[i] != nil {
				co.mirrors[i].Close()
			}
			co.mirrors[i] = m
			co.mirrorIDs[i] = p.pull.ID
		}
	}
	view := &aggView{eng: agg, updates: cutSum}

	// Seed the fresh aggregator's incremental-query state from the
	// outgoing view before publishing: the merges above dirtied every
	// node, but if the old aggregator holds a current cached result, the
	// slot-level diff replaces that with the precise set of nodes whose
	// merged sketches actually changed — so the first query on the new
	// view after a trickle of worker ingest runs the delta path instead of
	// a cold full Boruvka. Done outside aggMu's write lock (the diff is an
	// O(n) byte compare) so queries keep flowing off the old view.
	if old != nil {
		agg.AdoptQueryBaseline(old.eng)
	}

	co.aggMu.Lock()
	retired := co.agg
	co.agg = view
	co.aggMu.Unlock()
	if retired != nil && retired.eng != view.eng {
		retired.eng.Close()
	}
	return nil
}

// view returns the current merged view, refreshing first if none exists
// yet.
func (co *Coordinator) view(ctx context.Context) (*aggView, func(), error) {
	co.aggMu.RLock()
	if co.agg == nil {
		co.aggMu.RUnlock()
		if err := co.Refresh(ctx); err != nil {
			return nil, nil, err
		}
		co.aggMu.RLock()
	}
	v := co.agg
	if v == nil {
		co.aggMu.RUnlock()
		return nil, nil, errors.New("gzserve: no merged view")
	}
	return v, co.aggMu.RUnlock, nil
}

// ConnectedComponents answers over the last merged checkpoint cut.
func (co *Coordinator) ConnectedComponents(ctx context.Context) ([]uint32, int, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	return v.eng.ConnectedComponents()
}

// SpanningForest answers over the last merged checkpoint cut.
func (co *Coordinator) SpanningForest(ctx context.Context) ([]stream.Edge, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return v.eng.SpanningForest()
}

// Connected answers a point query over the last merged checkpoint cut.
func (co *Coordinator) Connected(ctx context.Context, u, vtx uint32) (bool, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return false, err
	}
	defer release()
	return v.eng.Connected(u, vtx)
}

// MergedUpdates returns the summed worker stream positions of the last
// merged cut (0 before the first refresh).
func (co *Coordinator) MergedUpdates() uint64 { return co.lastMergeUpd.Load() }

// Stats snapshots the coordinator's /statsz document.
func (co *Coordinator) Stats() CoordStats {
	st := CoordStats{
		Accepted:         co.accepted.Load(),
		AcceptedBatches:  co.acceptedB.Load(),
		Merges:           co.merges.Load(),
		DeltaRefreshes:   co.deltaRefr.Load(),
		LastMergeNanos:   co.lastMergeNs.Load(),
		LastMergeUpdates: co.lastMergeUpd.Load(),
	}
	for _, cl := range co.clients {
		st.Workers = append(st.Workers, cl.Stats())
	}
	return st
}

// Close gracefully shuts the coordinator down: it stops the background
// merge loop, drains every worker's send window, and ships one final
// refresh so the last merged view covers everything accepted. The final
// aggregator is then released.
func (co *Coordinator) Close(ctx context.Context) error {
	if co.closed.Swap(true) {
		return nil
	}
	if co.loopStop != nil {
		close(co.loopStop)
		<-co.loopDone
	}
	err := co.Refresh(ctx) // Flush + final checkpoint pull + merge
	co.lifeCancel()        // abort anything still in flight after the drain
	co.aggMu.Lock()
	if co.agg != nil {
		co.agg.eng.Close()
		co.agg = nil
	}
	co.aggMu.Unlock()
	co.refreshMu.Lock()
	for i, m := range co.mirrors {
		if m != nil {
			m.Close()
			co.mirrors[i] = nil
		}
	}
	co.refreshMu.Unlock()
	return err
}

// Handler returns the coordinator's HTTP routes: framed ingest (with
// the same idempotent sequence-number contract workers enforce), query
// and refresh endpoints, info and statsz.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathIngest, co.handleIngest)
	mux.HandleFunc("POST "+PathRefresh, co.handleRefresh)
	mux.HandleFunc("GET "+PathComponents, co.handleComponents)
	mux.HandleFunc("GET "+PathForest, co.handleForest)
	mux.HandleFunc("GET "+PathConnected, co.handleConnected)
	mux.HandleFunc("GET "+PathInfo, co.handleInfo)
	mux.HandleFunc("GET "+PathStatsz, co.handleStatsz)
	return mux
}

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
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
	switch co.gate.Claim(seq) {
	case claimDup:
		w.Header().Set("Content-Type", "application/x-gzw1")
		WriteFrame(w, MsgAck, EncodeAck(seq, false))
		return
	case claimBusy:
		writeWireError(w, http.StatusServiceUnavailable, CodeBusy,
			fmt.Sprintf("sequence %d is being ingested", seq))
		return
	}
	// Ingest fails only when the batch was not accepted (shutting down),
	// so releasing the seq for a retry is safe; once accepted the batch
	// will be forwarded, so the seq must commit — any later async send
	// failure is reported by Refresh, not by failing this (or any
	// subsequent) ack, where a retryable reply would double-apply.
	if err := co.Ingest(ups); err != nil {
		co.gate.Release(seq)
		writeWireError(w, http.StatusServiceUnavailable, CodeClosed, err.Error())
		return
	}
	co.gate.Commit(seq)
	w.Header().Set("Content-Type", "application/x-gzw1")
	WriteFrame(w, MsgAck, EncodeAck(seq, true))
}

func (co *Coordinator) handleRefresh(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := co.Refresh(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"merged_updates":  co.lastMergeUpd.Load(),
		"merge_nanos":     co.lastMergeNs.Load(),
		"wall_nanos":      time.Since(start).Nanoseconds(),
		"workers":         len(co.clients),
		"delta_refreshes": co.deltaRefr.Load(),
	})
}

func (co *Coordinator) handleComponents(w http.ResponseWriter, r *http.Request) {
	rep, count, err := co.ConnectedComponents(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"count":          count,
		"rep":            rep,
		"merged_updates": co.lastMergeUpd.Load(),
	})
}

func (co *Coordinator) handleForest(w http.ResponseWriter, r *http.Request) {
	forest, err := co.SpanningForest(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	edges := make([][2]uint32, len(forest))
	for i, e := range forest {
		edges[i] = [2]uint32{e.U, e.V}
	}
	writeJSON(w, map[string]any{
		"edges":          edges,
		"merged_updates": co.lastMergeUpd.Load(),
	})
}

func (co *Coordinator) handleConnected(w http.ResponseWriter, r *http.Request) {
	u, err1 := strconv.ParseUint(r.URL.Query().Get("u"), 10, 32)
	v, err2 := strconv.ParseUint(r.URL.Query().Get("v"), 10, 32)
	if err1 != nil || err2 != nil {
		http.Error(w, "u and v query parameters must be node ids", http.StatusBadRequest)
		return
	}
	conn, err := co.Connected(r.Context(), uint32(u), uint32(v))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"connected": conn, "merged_updates": co.lastMergeUpd.Load()})
}

func (co *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Info{
		Role:        "coordinator",
		WireVersion: WireVersion,
		NumNodes:    co.cfg.Engine.NumNodes,
		Seed:        co.cfg.Engine.Seed,
		Columns:     co.cfg.Engine.Columns,
		Rounds:      co.cfg.Engine.Rounds,
		RangeLo:     0,
		RangeHi:     co.cfg.Engine.NumNodes,
	})
}

func (co *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, co.Stats())
}
