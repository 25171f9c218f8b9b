package gzserve

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// ErrRangeMismatch is returned by NewCoordinator when a worker's node
// range is not the one the coordinator's partition assigns it.
var ErrRangeMismatch = errors.New("gzserve: worker node range does not match its partition")

// CoordinatorConfig parameterizes a coordinator.
type CoordinatorConfig struct {
	// Engine carries the cluster-wide engine parameters (NumNodes and
	// Seed required; every worker must have been started with the same
	// NumNodes/Seed/Columns/Rounds and with its partition's node range,
	// or /v1/info validation fails). The view queries run on is built
	// from it, always in RAM.
	Engine core.Config
	// Workers is the base URL of every worker, in partition order:
	// worker i owns NewRangePartitioner(NumNodes, len(Workers)).Range(i).
	Workers []string
	// BatchSize is the per-worker dispatch threshold in updates
	// (default 4096): a worker's pending buffer ships when it fills.
	BatchSize int
	// Client tunes every worker connection (window, retries, transport).
	Client ClientConfig
	// MergeInterval, when positive, refreshes the view periodically in
	// the background; queries between refreshes answer from the last
	// refreshed cut.
	MergeInterval time.Duration
	// SkipValidate skips the startup /v1/info compatibility handshake
	// (tests that fake workers).
	SkipValidate bool
	// NoDeltaRefresh makes every refresh pull every worker's full
	// checkpoint and install it into the view, where only the nodes whose
	// bytes differ count as changed. By default a refresh after the first
	// asks each worker for a delta since the cut the view holds and
	// replaces just the changed nodes.
	NoDeltaRefresh bool
}

// CoordStats is the coordinator's /statsz document.
type CoordStats struct {
	// Accepted counts updates taken in by Ingest; AcceptedBatches the
	// ingest calls (network or in-process) that carried them.
	Accepted        uint64 `json:"accepted"`
	AcceptedBatches uint64 `json:"accepted_batches"`
	// Merges counts refreshes; the Last* fields describe the most recent
	// one: wall time of the pull and install, the summed stream positions
	// of the worker cuts, and its completion time. DeltaRefreshes counts
	// the refreshes in which every worker shipped a sparse delta, patched
	// into the view in place.
	Merges           uint64 `json:"merges"`
	DeltaRefreshes   uint64 `json:"delta_refreshes"`
	LastMergeNanos   uint64 `json:"last_merge_nanos"`
	LastMergeUpdates uint64 `json:"last_merge_updates"`
	// Workers is each connection's send/retry/duplicate/in-flight
	// accounting, in partition order.
	Workers []ClientStats `json:"workers"`
}

// Coordinator routes every update to the workers owning its endpoints,
// pipelines the sends, and answers global queries from one universe-sized
// view in which node v's slot is its owner's, byte for byte. Ingest and
// queries are safe for concurrent use; queries reflect the last refreshed
// cut (call Refresh, or set MergeInterval, to advance it).
//
// Consistency contract: a view must never mix two cuts, or an edge would
// be present at one endpoint and missing at the other. Refresh therefore
// holds dispatch from its flush until every worker has sealed its cut (a
// concurrent Ingest waits one checkpoint round trip), so the cuts hold the
// same accepted updates. That requires one ingesting coordinator per
// cluster — the sequence gate assumes it too. A coordinator that does not
// ingest sees a consistent cut only while the ingesting one is flushed.
type Coordinator struct {
	cfg     CoordinatorConfig
	part    *Partitioner
	clients []*Client

	// lifeCtx governs forwarded sends: a batch accepted by Ingest keeps
	// flowing to its worker after the accepting call (or HTTP request)
	// returns, until the coordinator itself closes.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	// mu guards pending. Refresh holds it from its flush until every
	// worker has sealed, which is the dispatch barrier.
	mu      sync.Mutex
	pending [][]stream.Update

	gate *seqGate // dedup for the network ingest endpoint

	// agg is the published view the query path answers from: eng, once the
	// first refresh has installed into it, nil before. aggMu is held for
	// write while publishing and closing it.
	aggMu sync.RWMutex
	agg   *core.Engine

	// refreshMu serializes Refresh end to end. eng (guarded by it) is the
	// view's engine, made by the first refresh and kept for the
	// coordinator's life (closed by Close, never remade: acked would not
	// describe a new one). acked[i] is worker i's chain position whose range
	// the view holds: the base the next pull's ?since= names and a delta
	// must chain onto. Zero means none, and the next pull asks for a full
	// checkpoint.
	refreshMu sync.Mutex
	eng       *core.Engine
	acked     []core.ChainPos

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

// NewCoordinator connects to cfg.Workers, validates engine-parameter and
// node-range compatibility with each (unless SkipValidate), and returns a
// ready coordinator.
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
		cfg:     cfg,
		part:    part,
		pending: make([][]stream.Update, len(cfg.Workers)),
		gate:    newSeqGate(),
		acked:   make([]core.ChainPos, len(cfg.Workers)),
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
			if lo, hi := part.Range(i); info.RangeLo != lo || info.RangeHi != hi {
				return nil, fmt.Errorf("gzserve: worker %d (%s) owns [%d,%d), its partition is [%d,%d): %w",
					i, cl.Addr(), info.RangeLo, info.RangeHi, lo, hi, ErrRangeMismatch)
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

// Ingest accepts a batch of updates, routes each to the workers owning
// its endpoints (once when one worker owns both), and pipelines full
// per-worker sub-batches to their workers. Forwarding continues after
// Ingest returns (it is bounded by the coordinator's lifetime, not the
// call). A non-nil error (ErrClosed) means the batch was NOT accepted and
// may safely be resent; asynchronous send failures surface on Flush and
// Refresh instead, never here — an accepted batch must not look
// retryable, or a resend would double-apply into the XOR sketches.
func (co *Coordinator) Ingest(ups []stream.Update) error {
	if co.closed.Load() {
		return core.ErrClosed
	}
	co.accepted.Add(uint64(len(ups)))
	co.acceptedB.Add(1)
	co.mu.Lock()
	for _, u := range ups {
		i, j := co.part.Owners(u)
		co.queueLocked(i, u)
		if j != i {
			co.queueLocked(j, u)
		}
	}
	co.mu.Unlock()
	return nil
}

// queueLocked appends u to worker i's pending buffer, shipping the buffer
// once it is full. The caller holds mu.
func (co *Coordinator) queueLocked(i int, u stream.Update) {
	co.pending[i] = append(co.pending[i], u)
	if len(co.pending[i]) >= co.cfg.BatchSize {
		co.clients[i].SendAsync(co.lifeCtx, co.pending[i])
		co.pending[i] = co.pending[i][:0]
	}
}

// Flush ships every pending sub-batch and waits for all in-flight sends
// to be acknowledged.
func (co *Coordinator) Flush() error {
	co.mu.Lock()
	co.shipLocked()
	co.mu.Unlock()
	return co.drain()
}

// shipLocked sends every non-empty pending buffer. The caller holds mu.
func (co *Coordinator) shipLocked() {
	for i := range co.pending {
		if len(co.pending[i]) > 0 {
			co.clients[i].SendAsync(co.lifeCtx, co.pending[i])
			co.pending[i] = co.pending[i][:0]
		}
	}
}

// drain waits for every worker's in-flight sends and returns the first
// send failure.
func (co *Coordinator) drain() error {
	var first error
	for _, cl := range co.clients {
		if err := cl.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ramCfg is the engine configuration the view is built from: the cluster
// parameters over the whole universe, forced into RAM with no WAL.
func (co *Coordinator) ramCfg() core.Config {
	cfg := co.cfg.Engine
	cfg.Range = core.NodeRange{}
	cfg.SketchesOnDisk = false
	cfg.Dir = ""
	cfg.WAL = false
	cfg.WALStorage = nil
	return cfg
}

// pull takes every worker's cut and loads worker i's body as range i of
// the view (ReadRange, then Load: every body read and verified whole, in
// RAM), for Refresh to install all of them in one step. Worker i is asked
// for a delta since acked[i], or for a full checkpoint with
// NoDeltaRefresh or no acked position. Dispatch is held from the flush
// until every worker's response header has arrived — a worker seals
// before it answers — so every cut holds exactly the updates accepted
// before the refresh; the bodies are read concurrently, outside the
// view's lock, and need not wait for each other, so two coordinators
// pulling at once cannot deadlock on the workers' checkpoint locks.
func (co *Coordinator) pull(ctx context.Context) ([]*core.Checkpoint, error) {
	k := len(co.clients)
	cps := make([]*core.Checkpoint, k)
	bodies := make([]io.Closer, k)
	defer func() {
		for _, b := range bodies {
			if b != nil {
				b.Close()
			}
		}
	}()
	errs := make([]error, k)
	co.mu.Lock()
	co.shipLocked()
	if err := co.drain(); err != nil {
		co.mu.Unlock()
		return nil, err
	}
	var sealed, done sync.WaitGroup
	sealed.Add(k)
	done.Add(k)
	for i, cl := range co.clients {
		go func() {
			defer done.Done()
			var since uint64
			if !co.cfg.NoDeltaRefresh {
				since = co.acked[i].ID
			}
			body, _, err := cl.Checkpoint(ctx, since)
			sealed.Done()
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = body
			lo, hi := co.part.Range(i)
			cp, err := co.eng.ReadRange(body, lo, hi)
			if err == nil {
				err = cp.Load()
			}
			cps[i], errs[i] = cp, err
		}()
	}
	sealed.Wait()
	co.mu.Unlock()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gzserve: pulling checkpoint from worker %d (%s): %w", i, co.clients[i].Addr(), err)
		}
	}
	return cps, nil
}

// Refresh advances the view queries answer from to a new cut that holds
// every update Ingest had accepted before Refresh began: it flushes the
// send pipeline, has every worker seal (holding dispatch until all have;
// see Coordinator) and takes in each worker's body as the worker's node
// range of the view. The first refresh makes the view, which then serves
// for the coordinator's life. Every refresh, full or delta, pulls and
// verifies every body before the view is touched — a delta must chain
// onto the cut the view holds of its worker, and every slot must lie
// inside the worker's range — and then installs all of them in one step.
// A full checkpoint (the first refresh, NoDeltaRefresh, or a worker that
// restarted, aged out its base or churned too much) replaces its whole
// range, a delta its nodes; either way only the nodes whose bytes differ
// count as changed, each replaced slot's old bytes feeding the
// incremental query. On any error the view is left as it was.
func (co *Coordinator) Refresh(ctx context.Context) error {
	co.refreshMu.Lock()
	defer co.refreshMu.Unlock()
	start := time.Now()
	if co.eng == nil {
		eng, err := core.NewEngine(co.ramCfg())
		if err != nil {
			return err
		}
		co.eng = eng
	}
	if co.eng.Closed() {
		return core.ErrClosed
	}
	cps, err := co.pull(ctx)
	if err != nil {
		return err
	}
	var updates uint64
	allDelta := true
	for i, cp := range cps {
		if cp.IsDelta() && cp.Base != co.acked[i] {
			// The worker re-minted the id the view holds under another
			// state (a durable restart keeps its lineage tag): pull its
			// full range next time.
			co.acked[i] = core.ChainPos{}
			return fmt.Errorf("gzserve: worker %d (%s): %w", i, co.clients[i].Addr(), core.ErrCheckpointChain)
		}
		updates += cp.Updates
		allDelta = allDelta && cp.IsDelta()
	}
	if err := co.eng.Install(cps...); err != nil {
		return fmt.Errorf("gzserve: installing worker cuts: %w", err)
	}
	for i, cp := range cps {
		co.acked[i] = cp.Pos
	}
	co.aggMu.Lock()
	co.agg = co.eng
	co.aggMu.Unlock()
	co.merges.Add(1)
	if allDelta {
		co.deltaRefr.Add(1)
	}
	co.lastMergeNs.Store(uint64(time.Since(start).Nanoseconds()))
	co.lastMergeUpd.Store(updates)
	return nil
}

// view returns the current view, refreshing first if none exists
// yet.
func (co *Coordinator) view(ctx context.Context) (*core.Engine, func(), error) {
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
		return nil, nil, errors.New("gzserve: no view")
	}
	return v, co.aggMu.RUnlock, nil
}

// ConnectedComponents answers over the last refreshed cut.
func (co *Coordinator) ConnectedComponents(ctx context.Context) ([]uint32, int, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	return v.ConnectedComponents()
}

// SpanningForest answers over the last refreshed cut.
func (co *Coordinator) SpanningForest(ctx context.Context) ([]stream.Edge, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return v.SpanningForest()
}

// Connected answers a point query over the last refreshed cut.
func (co *Coordinator) Connected(ctx context.Context, u, vtx uint32) (bool, error) {
	v, release, err := co.view(ctx)
	if err != nil {
		return false, err
	}
	defer release()
	return v.Connected(u, vtx)
}

// MergedUpdates returns the number of updates in the last refreshed cut
// (0 before the first refresh): the sum of the workers' counts, each
// worker counting the updates whose lower endpoint it owns.
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
// merge loop, drains every worker's send window, and runs one final
// refresh so the last view covers everything accepted. The view is then
// released, and later refreshes and queries fail with core.ErrClosed.
func (co *Coordinator) Close(ctx context.Context) error {
	if co.closed.Swap(true) {
		return nil
	}
	if co.loopStop != nil {
		close(co.loopStop)
		<-co.loopDone
	}
	err := co.Refresh(ctx) // flush + final checkpoint pull
	co.lifeCancel()        // abort anything still in flight after the drain
	co.refreshMu.Lock()
	co.aggMu.Lock()
	co.agg = nil
	if co.eng != nil {
		co.eng.Close()
	}
	co.aggMu.Unlock()
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
