package gzserve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

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
	tc.co.aggMu.RLock()
	agg := tc.co.agg.eng
	tc.co.aggMu.RUnlock()
	if st := agg.Stats(); st.DeltaQueries == 0 {
		t.Fatalf("post-adoption query ran cold (delta=%d fallbacks=%d)", st.DeltaQueries, st.DeltaFallbacks)
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
