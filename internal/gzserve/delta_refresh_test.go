package gzserve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// toggled applies ups then extra to a presence map and returns the
// surviving edges' exact partition.
func toggled(numNodes uint32, ups, extra []stream.Update) ([]uint32, int) {
	present := map[stream.Edge]bool{}
	for _, u := range ups {
		present[u.Edge] = u.Type == stream.Insert
	}
	for _, u := range extra {
		present[u.Edge] = !present[u.Edge]
	}
	var edges []stream.Edge
	for e, ok := range present {
		if ok {
			edges = append(edges, e)
		}
	}
	return exactPartition(numNodes, edges)
}

// TestCoordinatorDeltaRefreshPath pins the incremental refresh: after a
// full refresh acknowledged a base per worker, a refresh over a small
// trickle must ride the delta path — fewer bytes, DeltaRefreshes
// incremented — and still answer exactly.
func TestCoordinatorDeltaRefreshPath(t *testing.T) {
	const numNodes = 96
	tc := startCluster(t, numNodes, 31, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ctx := context.Background()

	ups, _ := randomStream(numNodes, 900, 7)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	fullBytes := tc.co.Stats().Workers[0].CheckpointBytes

	// A trickle touching a handful of nodes on each worker's partition.
	extra := []stream.Update{
		{Edge: stream.Edge{U: 0, V: 1}, Type: stream.Insert},
		{Edge: stream.Edge{U: 2, V: 3}, Type: stream.Insert},
		{Edge: stream.Edge{U: 50, V: 51}, Type: stream.Insert},
	}
	if err := tc.co.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	st := tc.co.Stats()
	if st.DeltaRefreshes != 1 {
		t.Fatalf("DeltaRefreshes = %d, want 1", st.DeltaRefreshes)
	}
	var deltaPulls uint64
	for _, w := range st.Workers {
		deltaPulls += w.DeltaCheckpoints
	}
	if deltaPulls == 0 {
		t.Fatal("no worker served a delta checkpoint")
	}
	if got := st.Workers[0].CheckpointBytes; got >= 2*fullBytes {
		t.Fatalf("delta refresh pulled %d bytes after a %d-byte full — not incremental", got-fullBytes, fullBytes)
	}
	if st.LastMergeUpdates != uint64(len(ups)+len(extra)) {
		t.Fatalf("merged cut covers %d updates, want %d", st.LastMergeUpdates, len(ups)+len(extra))
	}

	rep, count, err := tc.co.ConnectedComponents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantCount := toggled(numNodes, ups, extra)
	if count != wantCount {
		t.Fatalf("components = %d, want %d", count, wantCount)
	}
	if !partitionsAgree(rep, wantRep) {
		t.Fatal("delta-refreshed partition does not match the exact reference")
	}
}

// TestCoordinatorMixedDeltaFallback covers the mixed-pull round: one
// worker dirties past its delta threshold and answers a ?since= pull with
// a full checkpoint while the other answers with a delta. The coordinator
// installs the full range and the delta in one step — no re-pull — and
// answers exactly; the round is not counted as a delta refresh.
func TestCoordinatorMixedDeltaFallback(t *testing.T) {
	const numNodes = 96 // ranges [0,48) and [48,96); threshold 0.20 → 19 nodes
	tc := startCluster(t, numNodes, 37, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ctx := context.Background()

	ups, _ := randomStream(numNodes, 900, 13)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Worker 0: 24 disjoint edges dirty 48 nodes, past its threshold.
	// Worker 1: one edge, comfortably a delta.
	var extra []stream.Update
	for u := uint32(0); u < 48; u += 2 {
		extra = append(extra, stream.Update{Edge: stream.Edge{U: u, V: u + 1}, Type: stream.Insert})
	}
	extra = append(extra, stream.Update{Edge: stream.Edge{U: 60, V: 61}, Type: stream.Insert})
	if err := tc.co.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	st := tc.co.Stats()
	if st.DeltaRefreshes != 0 {
		t.Fatalf("DeltaRefreshes = %d, want 0 (a mixed round is not a delta refresh)", st.DeltaRefreshes)
	}
	for i, w := range st.Workers {
		if w.Checkpoints != 2 {
			t.Fatalf("worker %d served %d checkpoints over two refreshes, want 2 (no re-pull)", i, w.Checkpoints)
		}
	}
	if st.Workers[0].DeltaCheckpoints != 0 || st.Workers[1].DeltaCheckpoints != 1 {
		t.Fatalf("delta pulls %d/%d, want 0/1", st.Workers[0].DeltaCheckpoints, st.Workers[1].DeltaCheckpoints)
	}
	if st.LastMergeUpdates != uint64(len(ups)+len(extra)) {
		t.Fatalf("merged cut covers %d updates, want %d", st.LastMergeUpdates, len(ups)+len(extra))
	}
	rep, count, err := tc.co.ConnectedComponents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantCount := toggled(numNodes, ups, extra)
	if count != wantCount {
		t.Fatalf("components = %d, want %d", count, wantCount)
	}
	if !partitionsAgree(rep, wantRep) {
		t.Fatal("fallback partition does not match the exact reference")
	}

	// The full range was acknowledged: the next trickle rides the delta
	// path again.
	more := []stream.Update{{Edge: stream.Edge{U: 4, V: 7}, Type: stream.Insert}}
	if err := tc.co.Ingest(more); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.co.Stats().DeltaRefreshes; got != 1 {
		t.Fatalf("DeltaRefreshes after repaired round = %d, want 1", got)
	}
}

// TestWorkerCheckpointSince covers the worker's ?since= surface: a
// malformed id is the caller's fault, an unknown base degrades to a full
// checkpoint, and a valid base yields a delta with the chain headers set.
func TestWorkerCheckpointSince(t *testing.T) {
	const numNodes = 64
	wk, err := NewWorker(core.Config{NumNodes: numNodes, Seed: 17}, 0, numNodes)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	if err := wk.Engine().InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + PathCheckpoint + "?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed since: status %d, want 400", resp.StatusCode)
	}

	get := func(url string) (*http.Response, uint64) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var id uint64
		if _, err := fmt.Sscanf(resp.Header.Get("X-GZ-Checkpoint-ID"), "%d", &id); err != nil {
			t.Fatalf("GET %s: bad checkpoint id header: %v", url, err)
		}
		return resp, id
	}

	resp, base := get(srv.URL + PathCheckpoint)
	if resp.Header.Get("X-GZ-Checkpoint-Delta") == "1" {
		t.Fatal("first checkpoint claimed to be a delta")
	}

	if err := wk.Engine().InsertEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	resp, next := get(fmt.Sprintf("%s%s?since=%d", srv.URL, PathCheckpoint, base))
	if resp.Header.Get("X-GZ-Checkpoint-Delta") != "1" {
		t.Fatal("pull against the acked base did not yield a delta")
	}
	if next <= base {
		t.Fatalf("chain id did not advance: %d -> %d", base, next)
	}

	// An id the worker never sealed (e.g. from a previous incarnation)
	// degrades to a full checkpoint, never an error.
	resp, _ = get(fmt.Sprintf("%s%s?since=%d", srv.URL, PathCheckpoint, next+100))
	if resp.Header.Get("X-GZ-Checkpoint-Delta") == "1" {
		t.Fatal("unknown base yielded a delta")
	}

	// /statsz reports the seal bookkeeping.
	doc := getJSON(t, srv.URL+PathStatsz)
	if _, ok := doc["last_checkpoint_id"]; !ok {
		t.Fatalf("statsz lacks last_checkpoint_id: %v", doc)
	}
}

// TestDurableWorkerTwoReaders gives one durable worker its two checkpoint
// readers at once: the local delta chain and the coordinator's ?since=
// pulls. Many seals by either reader must not push the other off its base.
func TestDurableWorkerTwoReaders(t *testing.T) {
	const numNodes = 64
	wk, _, err := NewDurableWorker(core.Config{NumNodes: numNodes, Seed: 43}, 0, numNodes,
		Durability{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	// Each trickle toggles one edge among nodes 0..5, far under the delta
	// threshold however many accumulate.
	trickles := 0
	trickle := func() {
		t.Helper()
		u := uint32(trickles % 6)
		trickles++
		if err := wk.Engine().InsertEdge(u, (u+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	pull := func(since uint64) (id uint64, delta bool) {
		t.Helper()
		url := srv.URL + PathCheckpoint
		if since != 0 {
			url += fmt.Sprintf("?since=%d", since)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if _, err := fmt.Sscanf(resp.Header.Get("X-GZ-Checkpoint-ID"), "%d", &id); err != nil {
			t.Fatalf("GET %s: bad checkpoint id header: %v", url, err)
		}
		return id, resp.Header.Get("X-GZ-Checkpoint-Delta") == "1"
	}

	trickle()
	if err := wk.CheckpointLocal(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(wk.ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	// Twenty pulls between two local checkpoints.
	var since uint64
	for i := 0; i < 20; i++ {
		trickle()
		since, _ = pull(since)
	}
	trickle()
	if err := wk.CheckpointLocal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(wk.ckptPath), "delta-000000.gzd")); err != nil {
		t.Fatalf("local checkpoint after 20 pulls wrote no delta file: %v", err)
	}
	if now, err := os.ReadFile(wk.ckptPath); err != nil || !bytes.Equal(now, full) {
		t.Fatalf("local checkpoint after 20 pulls rewrote %s (err %v)", CheckpointFileName, err)
	}

	// Twenty local checkpoints between two pulls.
	for i := 0; i < 20; i++ {
		trickle()
		if err := wk.CheckpointLocal(); err != nil {
			t.Fatal(err)
		}
	}
	trickle()
	if _, delta := pull(since); !delta {
		t.Fatal("pull after 20 local checkpoints was not a delta")
	}
}
