package gzserve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// getJSON fetches url and decodes the JSON body into a generic document,
// failing the test on any non-2xx status.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return doc
}

// TestCoordinatorIncrementalRefresh pins the incremental query after a
// refresh: a second refresh after a trickle of further ingest leaves a
// view whose first query runs the delta path off the previous cached
// result, and the answers still match the exact reference.
func TestCoordinatorIncrementalRefresh(t *testing.T) {
	const numNodes = 96
	tc := startCluster(t, numNodes, 29, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ctx := context.Background()

	ups, _ := randomStream(numNodes, 1200, 5)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tc.co.ConnectedComponents(ctx); err != nil { // cache a baseline on view 1
		t.Fatal(err)
	}

	// Trickle: a few fresh edges between nodes untouched by deletes, then
	// refresh.
	extra := []stream.Update{
		{Edge: stream.Edge{U: 0, V: 1}, Type: stream.Insert},
		{Edge: stream.Edge{U: 1, V: 2}, Type: stream.Insert},
	}
	present := map[stream.Edge]bool{}
	for _, u := range ups {
		present[u.Edge] = u.Type == stream.Insert
	}
	for _, u := range extra {
		present[u.Edge] = !present[u.Edge]
	}
	if err := tc.co.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	rep, count, err := tc.co.ConnectedComponents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var edges []stream.Edge
	for e, ok := range present {
		if ok {
			edges = append(edges, e)
		}
	}
	wantRep, wantCount := exactPartition(numNodes, edges)
	if count != wantCount {
		t.Fatalf("components = %d, want %d", count, wantCount)
	}
	if !partitionsAgree(rep, wantRep) {
		t.Fatal("merged partition does not match the exact reference")
	}

	// The view must have answered incrementally: the install stamped only
	// the trickle's nodes.
	if st := viewOf(tc.co).Stats(); st.DeltaQueries == 0 {
		t.Fatalf("the query after the refresh ran cold (delta=%d fallbacks=%d)", st.DeltaQueries, st.DeltaFallbacks)
	}
}

// viewOf returns the engine co's queries run on.
func viewOf(co *Coordinator) *core.Engine {
	co.aggMu.RLock()
	defer co.aggMu.RUnlock()
	return co.agg
}

// TestCoordinatorOneView pins the coordinator's one view: the engine its
// queries run on is made by the first refresh and kept across delta
// refreshes and, with NoDeltaRefresh, across full ones. A full refresh's
// install counts only the nodes whose bytes differ as changed, so the
// query after a second full refresh is a delta query, with the exact
// answer.
func TestCoordinatorOneView(t *testing.T) {
	const numNodes = 96
	tc := startCluster(t, numNodes, 41, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ctx := context.Background()
	var addrs []string
	for _, srv := range tc.servers {
		addrs = append(addrs, srv.URL)
	}
	full, err := NewCoordinator(CoordinatorConfig{Engine: core.Config{NumNodes: numNodes, Seed: 41},
		Workers: addrs, NoDeltaRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := full.Close(ctx); err != nil {
			t.Errorf("closing the full-refresh coordinator: %v", err)
		}
	}()
	// full ingests nothing: it pulls right after tc.co's refresh has
	// flushed, so both see the same cut.
	refresh := func() {
		t.Helper()
		for _, co := range []*Coordinator{tc.co, full} {
			if err := co.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	ups, _ := randomStream(numNodes, 900, 11)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	refresh()
	deltaView, fullView := viewOf(tc.co), viewOf(full)
	for _, co := range []*Coordinator{tc.co, full} {
		if _, _, err := co.ConnectedComponents(ctx); err != nil {
			t.Fatal(err)
		}
	}

	extra := []stream.Update{
		{Edge: stream.Edge{U: 0, V: 1}, Type: stream.Insert},
		{Edge: stream.Edge{U: 60, V: 61}, Type: stream.Insert},
	}
	if err := tc.co.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	refresh()
	if d, f := tc.co.Stats(), full.Stats(); d.DeltaRefreshes != 1 || f.DeltaRefreshes != 0 || f.Merges != 2 {
		t.Fatalf("delta refreshes %d and %d of %d full-mode merges, want 1 and 0 of 2", d.DeltaRefreshes, f.DeltaRefreshes, f.Merges)
	}
	if viewOf(tc.co) != deltaView || viewOf(full) != fullView {
		t.Fatal("a refresh replaced the view engine")
	}

	before := fullView.Stats()
	wantRep, wantCount := toggled(numNodes, ups, extra)
	for _, co := range []*Coordinator{tc.co, full} {
		rep, count, err := co.ConnectedComponents(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if count != wantCount || !partitionsAgree(rep, wantRep) {
			t.Fatalf("%d components, want %d, or the partition differs from the exact one", count, wantCount)
		}
	}
	if st := fullView.Stats(); st.DeltaQueries != before.DeltaQueries+1 || st.DeltaFallbacks != before.DeltaFallbacks {
		t.Fatalf("the query after the second full refresh ran delta %d→%d, fallbacks %d→%d, want one delta query",
			before.DeltaQueries, st.DeltaQueries, before.DeltaFallbacks, st.DeltaFallbacks)
	}

	// A closed coordinator's view is gone for good: no query answers off
	// an engine remade after Close.
	if err := full.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := full.ConnectedComponents(ctx); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("a query after Close: %v, want ErrClosed", err)
	}
}

// exactPartition is the DSU reference partition over edges.
func exactPartition(n uint32, edges []stream.Edge) ([]uint32, int) {
	d := dsu.New(int(n))
	for _, e := range edges {
		d.Union(e.U, e.V)
	}
	rep, _ := d.Components()
	return rep, d.Count()
}

// partitionsAgree reports whether two representative vectors encode the
// same partition up to label renaming.
func partitionsAgree(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := bwd[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}
