package gzserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// prefixModel answers "which partition do the first m updates of ups
// leave" exactly, from the edge set they toggle; m may only grow.
type prefixModel struct {
	numNodes uint32
	ups      []stream.Update
	present  map[stream.Edge]bool
	at       int
}

func (pm *prefixModel) partition(m int) ([]uint32, int) {
	if pm.present == nil {
		pm.present = map[stream.Edge]bool{}
	}
	for ; pm.at < m; pm.at++ {
		e := pm.ups[pm.at].Edge.Normalize()
		pm.present[e] = !pm.present[e]
	}
	var edges []stream.Edge
	for e, ok := range pm.present {
		if ok {
			edges = append(edges, e)
		}
	}
	return exactPartition(pm.numNodes, edges)
}

// churnStream is a well-formed stream over few live edges, most of them
// crossing the middle of the universe: every update merges or splits
// components, so an edge present at one endpoint and missing at the other
// changes the answer.
func churnStream(numNodes uint32, n int, seed uint64) []stream.Update {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	half := uint64(numNodes / 2)
	var live []stream.Edge
	present := map[stream.Edge]bool{}
	ups := make([]stream.Update, 0, n)
	for len(ups) < n {
		if len(live) == 12 {
			e := live[0]
			live = live[1:]
			present[e] = false
			ups = append(ups, stream.Update{Edge: e, Type: stream.Delete})
			continue
		}
		u, v := uint32(rng.Uint64N(half)), uint32(half+rng.Uint64N(half))
		if rng.Uint64N(4) == 0 {
			v = uint32(rng.Uint64N(half))
		}
		e := stream.Edge{U: u, V: v}.Normalize()
		if e.U == e.V || present[e] {
			continue
		}
		present[e] = true
		live = append(live, e)
		ups = append(ups, stream.Update{Edge: e, Type: stream.Insert})
	}
	return ups
}

// TestConsistentCutUnderConcurrentIngest is the refresh barrier's
// regression: one producer streams through Coordinator.Ingest while a loop
// refreshes and queries. A cross-range edge lives at both owners, so a
// view whose worker cuts differ by even one batch holds half an edge; with
// the barrier every answer equals the exact model over the first
// MergedUpdates() updates.
func TestConsistentCutUnderConcurrentIngest(t *testing.T) {
	const numNodes = 64
	tc := startCluster(t, numNodes, 47, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	tc.co.cfg.BatchSize = 8 // every producer batch ships to both workers
	ctx := context.Background()
	ups := churnStream(numNodes, 6000, 19)
	model := &prefixModel{numNodes: numNodes, ups: ups}

	var done, stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true) // a failed check stops the producer before shutdown
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for off := 0; off < len(ups) && !stop.Load(); off += 8 {
			if err := tc.co.Ingest(ups[off:min(off+8, len(ups))]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	check := func() {
		t.Helper()
		if err := tc.co.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		m := tc.co.MergedUpdates()
		rep, count, err := tc.co.ConnectedComponents(ctx)
		if err != nil {
			t.Fatalf("query over a cut of %d updates: %v", m, err)
		}
		wantRep, wantCount := model.partition(int(m))
		if count != wantCount || !partitionsAgree(rep, wantRep) {
			t.Fatalf("cut of %d updates: %d components, the model has %d", m, count, wantCount)
		}
	}
	refreshes := 0
	for !done.Load() {
		check()
		refreshes++
	}
	wg.Wait()
	check()
	if got := tc.co.MergedUpdates(); got != uint64(len(ups)) {
		t.Fatalf("final cut covers %d updates, %d were ingested", got, len(ups))
	}
	t.Logf("%d refreshes during ingest", refreshes)
}

// TestCoordinatorRefusesWrongWorkerRange: a worker whose /v1/info range is
// not its partition's is refused at startup with ErrRangeMismatch.
func TestCoordinatorRefusesWrongWorkerRange(t *testing.T) {
	const numNodes = 32
	var addrs []string
	for i := 0; i < 2; i++ {
		wk, err := NewWorker(core.Config{NumNodes: numNodes, Seed: 3}, 0, numNodes) // both claim everything
		if err != nil {
			t.Fatal(err)
		}
		defer wk.Close()
		srv := httptest.NewServer(wk.Handler())
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	_, err := NewCoordinator(CoordinatorConfig{Engine: core.Config{NumNodes: numNodes, Seed: 3}, Workers: addrs})
	if !errors.Is(err, ErrRangeMismatch) {
		t.Fatalf("NewCoordinator: %v, want ErrRangeMismatch", err)
	}
}

// TestWorkerRefusesForeignUpdate: an ingest frame holding an update with
// no endpoint in the worker's range is answered 400 with a wire error,
// applies nothing and consumes no sequence number.
func TestWorkerRefusesForeignUpdate(t *testing.T) {
	wk, err := NewWorker(core.Config{NumNodes: 16, Seed: 2}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	post := func(ups []stream.Update) (*http.Response, []byte, error) {
		t.Helper()
		resp, err := http.Post(srv.URL+PathIngest, "application/x-gzw1", bytes.NewReader(AppendFrame(nil, MsgIngest, EncodeIngest(1, ups))))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := expectFrame(resp.Body, MsgAck)
		return resp, payload, err
	}

	resp, _, err := post([]stream.Update{{Edge: stream.Edge{U: 1, V: 9}}, {Edge: stream.Edge{U: 9, V: 12}}})
	var re *RemoteError
	if resp.StatusCode != http.StatusBadRequest || !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Fatalf("foreign update: status %d, err %v; want 400 CodeBadRequest", resp.StatusCode, err)
	}
	if st := wk.Stats(); st.Batches != 0 || st.Engine.Updates != 0 || st.SeqLowWater != 0 {
		t.Fatalf("refused frame left batches=%d updates=%d seq low water=%d", st.Batches, st.Engine.Updates, st.SeqLowWater)
	}
	// Seq 1 is still unclaimed: a valid frame under it is applied.
	_, payload, err := post([]stream.Update{{Edge: stream.Edge{U: 1, V: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, applied, err := DecodeAck(payload); err != nil || !applied {
		t.Fatalf("valid frame under seq 1: applied=%v err=%v", applied, err)
	}
}

// fakeCheckpoints serves /v1/checkpoint from a whole-universe engine and
// everything else from a real worker: the stream a misconfigured worker
// would ship, well formed but outside its partition.
type fakeCheckpoints struct {
	real   http.Handler
	uni    *core.Engine
	bad    atomic.Bool
	lastID uint64
}

func (f *fakeCheckpoints) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.bad.Load() || r.URL.Path != PathCheckpoint {
		f.real.ServeHTTP(w, r)
		return
	}
	var since uint64
	if r.URL.Query().Get("since") != "" {
		since = f.lastID // a delta of the universe engine's own chain
	}
	cs, err := f.uni.SealCheckpointSince(since)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer cs.Close()
	f.lastID = cs.ID()
	w.Header().Set("X-GZ-Checkpoint-ID", fmt.Sprint(cs.ID()))
	if cs.IsDelta() {
		w.Header().Set("X-GZ-Checkpoint-Delta", "1")
	}
	WriteFrameHeader(w, MsgCheckpoint, cs.Size())
	cs.StreamTo(w)
}

// TestRefreshRefusesOutOfRangeStream: a full or delta checkpoint with a
// section outside the sending worker's range — built here from a universe
// engine's checkpoint — fails the refresh with core.ErrOutOfRange, and
// the view keeps serving its previous cut unchanged.
func TestRefreshRefusesOutOfRangeStream(t *testing.T) {
	const numNodes = 32
	for _, noDelta := range []bool{true, false} {
		t.Run(map[bool]string{true: "full", false: "delta"}[noDelta], func(t *testing.T) {
			cfg := core.Config{NumNodes: numNodes, Seed: 23}
			part, _ := NewRangePartitioner(numNodes, 2)
			var addrs []string
			var fake *fakeCheckpoints
			for i := 0; i < 2; i++ {
				lo, hi := part.Range(i)
				wk, err := NewWorker(cfg, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				defer wk.Close()
				var h http.Handler = wk.Handler()
				if i == 1 {
					uni, err := core.NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer uni.Close()
					fake = &fakeCheckpoints{real: h, uni: uni}
					h = fake
				}
				srv := httptest.NewServer(h)
				defer srv.Close()
				addrs = append(addrs, srv.URL)
			}
			co, err := NewCoordinator(CoordinatorConfig{Engine: cfg, Workers: addrs, NoDeltaRefresh: noDelta})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				fake.bad.Store(false)
				co.Close(context.Background())
			}()
			ctx := context.Background()
			ups, _ := randomStream(numNodes, 300, 4)
			if err := co.Ingest(ups); err != nil {
				t.Fatal(err)
			}
			if err := co.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
			wantRep, wantCount, err := co.ConnectedComponents(ctx)
			if err != nil {
				t.Fatal(err)
			}
			co.aggMu.RLock()
			view := co.agg
			co.aggMu.RUnlock()
			wantSlots := viewSlots(t, view)

			// The universe engine's cut dirties nodes of [0,16) only.
			if err := fake.uni.UpdateBatch(ups); err != nil {
				t.Fatal(err)
			}
			if noDelta {
				fake.bad.Store(true)
			} else {
				cs, err := fake.uni.SealCheckpointSince(0)
				if err != nil {
					t.Fatal(err)
				}
				fake.lastID = cs.ID()
				cs.Close()
				if err := fake.uni.InsertEdge(1, 2); err != nil {
					t.Fatal(err)
				}
				fake.bad.Store(true)
			}
			if err := co.Ingest([]stream.Update{{Edge: stream.Edge{U: 20, V: 21}}}); err != nil {
				t.Fatal(err)
			}
			if err := co.Refresh(ctx); !errors.Is(err, core.ErrOutOfRange) {
				t.Fatalf("refresh over an out-of-range stream: %v, want ErrOutOfRange", err)
			}
			rep, count, err := co.ConnectedComponents(ctx)
			if err != nil || count != wantCount || !partitionsAgree(rep, wantRep) || co.MergedUpdates() != uint64(len(ups)) {
				t.Fatalf("view moved: %d components (want %d), %d updates (want %d), err %v",
					count, wantCount, co.MergedUpdates(), len(ups), err)
			}
			co.aggMu.RLock()
			same := co.agg == view
			co.aggMu.RUnlock()
			if !same || !bytes.Equal(viewSlots(t, view), wantSlots) {
				t.Fatal("the refused refresh touched the view")
			}
		})
	}
}

// viewSlots returns the sketch bytes of e's full checkpoint: everything
// after the header and the meta blob, which carry counts and chain ids.
func viewSlots(t *testing.T, e *core.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[4+48+int(binary.LittleEndian.Uint32(b[4+40:])):]
}

// TestRefreshWithOneWorkerDown: with one worker stopped, Refresh fails and
// the last good view keeps answering; after the worker restarts from its
// state directory, the next Refresh installs its full range and the other
// worker's delta in one step, and the following trickle rides the delta
// path again.
func TestRefreshWithOneWorkerDown(t *testing.T) {
	const numNodes = 64
	cfg := core.Config{NumNodes: numNodes, Seed: 53}
	part, _ := NewRangePartitioner(numNodes, 2)
	lo0, hi0 := part.Range(0)
	lo1, hi1 := part.Range(1)
	w0, err := NewWorker(cfg, lo0, hi0)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	s0 := httptest.NewServer(w0.Handler())
	defer s0.Close()

	dur := Durability{StateDir: t.TempDir()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := ln.Addr().String()
	start1 := func(ln net.Listener) (*Worker, *http.Server) {
		t.Helper()
		wk, _, err := NewDurableWorker(cfg, lo1, hi1, dur)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: wk.Handler()}
		go srv.Serve(ln)
		return wk, srv
	}
	w1, s1 := start1(ln)

	co, err := NewCoordinator(CoordinatorConfig{Engine: cfg, Workers: []string{s0.URL, "http://" + addr1},
		Client: ClientConfig{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer func() {
		co.Close(ctx)
		s1.Close()
		w1.Close()
	}()
	expect := func(ups, extra []stream.Update) {
		t.Helper()
		rep, count, err := co.ConnectedComponents(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantRep, wantCount := toggled(numNodes, ups, extra)
		if count != wantCount || !partitionsAgree(rep, wantRep) {
			t.Fatalf("%d components, want %d", count, wantCount)
		}
		if want := uint64(len(ups) + len(extra)); co.MergedUpdates() != want {
			t.Fatalf("view covers %d updates, want %d", co.MergedUpdates(), want)
		}
	}
	ups, _ := randomStream(numNodes, 500, 8)
	if err := co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	expect(ups, nil)

	// Worker 1 goes down; the trickle touches worker 0's range only.
	s1.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	extra := []stream.Update{{Edge: stream.Edge{U: 3, V: 4}}, {Edge: stream.Edge{U: 4, V: 30}}}
	if err := co.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	if err := co.Refresh(ctx); err == nil {
		t.Fatal("refresh with a worker down succeeded")
	}
	expect(ups, nil)

	ln, err = net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	w1, s1 = start1(ln)
	before := co.Stats()
	if err := co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	after := co.Stats()
	expect(ups, extra)
	if after.DeltaRefreshes != before.DeltaRefreshes {
		t.Fatal("a round with a full answer counted as a delta refresh")
	}
	if d0, d1 := after.Workers[0].DeltaCheckpoints-before.Workers[0].DeltaCheckpoints,
		after.Workers[1].DeltaCheckpoints-before.Workers[1].DeltaCheckpoints; d0 != 1 || d1 != 0 {
		t.Fatalf("recovery round pulled %d/%d deltas, want worker 0's delta and worker 1's full range", d0, d1)
	}

	more := []stream.Update{{Edge: stream.Edge{U: 10, V: 50}}}
	if err := co.Ingest(more); err != nil {
		t.Fatal(err)
	}
	if err := co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	expect(ups, append(extra, more...))
	if got := co.Stats().DeltaRefreshes; got != after.DeltaRefreshes+1 {
		t.Fatalf("DeltaRefreshes %d after the next trickle, want %d", got, after.DeltaRefreshes+1)
	}
}

// TestViewBitIdenticalToUniverseEngine pins what node ownership must not
// change: after a full and after a delta refresh, the coordinator's view
// holds exactly the sketch bytes of one universe engine fed the same
// stream, and each worker's engine holds only its range's share of that
// engine's memory.
func TestViewBitIdenticalToUniverseEngine(t *testing.T) {
	const numNodes = 96
	cfg := core.Config{NumNodes: numNodes, Seed: 61}
	tc := startCluster(t, numNodes, cfg.Seed, 3, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ref, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ctx := context.Background()
	ingest := func(ups []stream.Update) {
		t.Helper()
		if err := tc.co.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		if err := ref.UpdateBatch(ups); err != nil {
			t.Fatal(err)
		}
		if err := tc.co.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		tc.co.aggMu.RLock()
		view := tc.co.agg
		tc.co.aggMu.RUnlock()
		if !bytes.Equal(viewSlots(t, view), viewSlots(t, ref)) {
			t.Fatal("view sketches differ from the universe engine's")
		}
	}
	ups, _ := randomStream(numNodes, 1500, 12)
	ingest(ups)
	ingest([]stream.Update{{Edge: stream.Edge{U: 5, V: 70}}, {Edge: stream.Edge{U: 40, V: 41}}})
	if got := tc.co.Stats().DeltaRefreshes; got != 1 {
		t.Fatalf("DeltaRefreshes = %d, want 1", got)
	}

	refMem := ref.Stats().MemoryBytes
	for i, wk := range tc.workers {
		lo, hi := tc.co.part.Range(i)
		mem := wk.Engine().Stats().MemoryBytes
		if mem <= 0 || mem*numNodes > refMem*int64(hi-lo) {
			t.Fatalf("worker %d over [%d,%d) holds %d bytes, more than its share of %d", i, lo, hi, mem, refMem)
		}
	}
}
