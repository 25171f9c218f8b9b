package experiments

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/kron"
)

// RefreshSweep measures what delta checkpoints buy the coordinator's
// refresh path: after a bulk load and a small trickle of further
// updates, a full refresh re-ships every worker's whole range into a
// fresh view while a delta refresh ships only the nodes the trickle
// touched and replaces them in the live view. The sweep runs
// trickle fraction x worker count; for each cell two coordinators over
// the same workers refresh the identical cut — one with delta refresh,
// one forced full — and the row records the shipped bytes, the refresh
// wall time, and whether both views (and a single reference engine that
// saw the whole stream) agree on the component partition.
func RefreshSweep(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	t := &Table{
		ID:    "refresh",
		Title: fmt.Sprintf("Delta vs full coordinator refresh after a trickle (kron%d, in-process cluster)", scale),
		Header: []string{"workers", "trickle", "full bytes", "delta bytes", "bytes ratio",
			"full refresh", "delta refresh", "speedup", "vs reference"},
		Notes: []string{
			"trickle = share of the node universe touched by updates ingested after the previous refresh",
			"full = coordinator with NoDeltaRefresh: pulls every worker's complete checkpoint into a fresh view",
			"delta = default coordinator: pulls ?since= deltas and patches only the changed node sketches in place",
			"both coordinators refresh the same worker cut; vs reference = both component partitions equal a single engine over the whole stream",
		},
	}
	for _, k := range []int{1, 2, 4} {
		for _, frac := range []float64{0.01, 0.05} {
			row, err := runRefreshTrial(res, o, k, frac)
			if err != nil {
				return nil, fmt.Errorf("refresh: workers=%d trickle=%.0f%%: %w", k, frac*100, err)
			}
			t.Rows = append(t.Rows, row)
			o.logf("refresh: workers=%d trickle=%.0f%% done", k, frac*100)
		}
	}
	return t, nil
}

func runRefreshTrial(res kron.Result, o Options, k int, frac float64) ([]string, error) {
	// Hold out a tail of the stream as the trickle: n updates touch at
	// most 2n nodes, so n = frac*nodes/2 keeps the dirty fraction under
	// frac and well inside the default 0.20 delta threshold.
	nTrickle := int(frac * float64(res.NumNodes) / 2)
	if nTrickle < 1 {
		nTrickle = 1
	}
	if nTrickle > len(res.Updates)/2 {
		nTrickle = len(res.Updates) / 2
	}
	base := res.Updates[:len(res.Updates)-nTrickle]
	trickle := res.Updates[len(res.Updates)-nTrickle:]

	ref, err := core.NewEngine(core.Config{NumNodes: res.NumNodes, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	if err := ref.UpdateBatch(res.Updates); err != nil {
		ref.Close()
		return nil, err
	}
	refRep, refCount, err := ref.ConnectedComponents()
	ref.Close()
	if err != nil {
		return nil, err
	}

	part, err := gzserve.NewRangePartitioner(res.NumNodes, k)
	if err != nil {
		return nil, err
	}
	var workers []*gzserve.Worker
	var servers []*http.Server
	var addrs []string
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for _, srv := range servers {
			srv.Shutdown(ctx)
		}
		for _, wk := range workers {
			wk.Close()
		}
	}
	for i := 0; i < k; i++ {
		lo, hi := part.Range(i)
		wk, err := gzserve.NewWorker(core.Config{NumNodes: res.NumNodes, Seed: o.Seed}, lo, hi)
		if err != nil {
			shutdown()
			return nil, err
		}
		srv, url, err := serveOn(wk.Handler())
		if err != nil {
			wk.Close()
			shutdown()
			return nil, err
		}
		workers = append(workers, wk)
		servers = append(servers, srv)
		addrs = append(addrs, url)
	}
	defer shutdown()

	newCoord := func(noDelta bool) (*gzserve.Coordinator, error) {
		return gzserve.NewCoordinator(gzserve.CoordinatorConfig{
			Engine:         core.Config{NumNodes: res.NumNodes, Seed: o.Seed},
			Workers:        addrs,
			NoDeltaRefresh: noDelta,
		})
	}
	coDelta, err := newCoord(false)
	if err != nil {
		return nil, err
	}
	coFull, err := newCoord(true)
	if err != nil {
		coDelta.Close(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	defer coFull.Close(ctx)
	defer coDelta.Close(ctx)

	// Bulk load through the delta coordinator, then bring both views to
	// the pre-trickle cut (the delta coordinator's refresh is full here —
	// it has no acknowledged base yet — and acknowledges every worker's cut).
	if err := coDelta.Ingest(base); err != nil {
		return nil, err
	}
	if err := coDelta.Refresh(ctx); err != nil {
		return nil, err
	}
	if err := coFull.Refresh(ctx); err != nil {
		return nil, err
	}

	// The trickle: a small slice of further updates, then one refresh per
	// coordinator over the identical worker cut.
	if err := coDelta.Ingest(trickle); err != nil {
		return nil, err
	}
	if err := coDelta.Flush(); err != nil {
		return nil, err
	}

	fullBytes0 := checkpointBytes(coFull)
	fullStart := time.Now()
	if err := coFull.Refresh(ctx); err != nil {
		return nil, err
	}
	fullDur := time.Since(fullStart)
	fullBytes := checkpointBytes(coFull) - fullBytes0

	deltaBytes0 := checkpointBytes(coDelta)
	deltaRefr0 := coDelta.Stats().DeltaRefreshes
	deltaStart := time.Now()
	if err := coDelta.Refresh(ctx); err != nil {
		return nil, err
	}
	deltaDur := time.Since(deltaStart)
	deltaBytes := checkpointBytes(coDelta) - deltaBytes0

	match := "MATCH"
	if coDelta.Stats().DeltaRefreshes != deltaRefr0+1 {
		match = "NO-DELTA-PATH"
	}
	if coDelta.MergedUpdates() != uint64(len(res.Updates)) || coFull.MergedUpdates() != uint64(len(res.Updates)) {
		match = fmt.Sprintf("LOST UPDATES (%d/%d/%d)", coDelta.MergedUpdates(), coFull.MergedUpdates(), len(res.Updates))
	}
	for _, co := range []*gzserve.Coordinator{coDelta, coFull} {
		rep, count, err := co.ConnectedComponents(ctx)
		if err != nil {
			return nil, err
		}
		if count != refCount || !samePartition(rep, refRep) {
			match = "MISMATCH"
		}
	}

	ratio := "inf"
	if deltaBytes > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(fullBytes)/float64(deltaBytes))
	}
	speedup := "inf"
	if deltaDur > 0 {
		speedup = fmt.Sprintf("%.1fx", float64(fullDur)/float64(deltaDur))
	}
	return []string{
		fmt.Sprintf("%d", k),
		fmt.Sprintf("%.0f%%", frac*100),
		fmt.Sprintf("%d", fullBytes),
		fmt.Sprintf("%d", deltaBytes),
		ratio,
		fmt.Sprintf("%.2f ms", float64(fullDur.Nanoseconds())/1e6),
		fmt.Sprintf("%.2f ms", float64(deltaDur.Nanoseconds())/1e6),
		speedup,
		match,
	}, nil
}

// checkpointBytes sums the checkpoint payload bytes a coordinator has
// pulled across all of its worker connections.
func checkpointBytes(co *gzserve.Coordinator) uint64 {
	var n uint64
	for _, w := range co.Stats().Workers {
		n += w.CheckpointBytes
	}
	return n
}
