package gzserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// testCluster is an in-process cluster over real localhost HTTP: K
// workers behind httptest servers plus a coordinator.
type testCluster struct {
	workers []*Worker
	servers []*httptest.Server
	co      *Coordinator
}

func startCluster(t *testing.T, numNodes uint32, seed uint64, k int, ccfg ClientConfig, transport func(http.RoundTripper) http.RoundTripper) *testCluster {
	t.Helper()
	tc := &testCluster{}
	part, err := NewRangePartitioner(numNodes, k)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < k; i++ {
		lo, hi := part.Range(i)
		wk, err := NewWorker(core.Config{NumNodes: numNodes, Seed: seed}, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(wk.Handler())
		tc.workers = append(tc.workers, wk)
		tc.servers = append(tc.servers, srv)
		addrs = append(addrs, srv.URL)
	}
	if ccfg.HTTPClient == nil {
		ccfg.HTTPClient = &http.Client{}
	}
	if transport != nil {
		inner := ccfg.HTTPClient.Transport
		if inner == nil {
			inner = http.DefaultTransport
		}
		ccfg.HTTPClient = &http.Client{Transport: transport(inner)}
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Engine:    core.Config{NumNodes: numNodes, Seed: seed},
		Workers:   addrs,
		BatchSize: 64,
		Client:    ccfg,
	})
	if err != nil {
		tc.shutdown(t)
		t.Fatal(err)
	}
	tc.co = co
	return tc
}

func (tc *testCluster) shutdown(t *testing.T) {
	t.Helper()
	if tc.co != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := tc.co.Close(ctx); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
	}
	for _, srv := range tc.servers {
		srv.Close()
	}
	for _, wk := range tc.workers {
		if err := wk.Close(); err != nil {
			t.Errorf("worker close: %v", err)
		}
	}
}

// randomStream builds a stream of inserts with a sprinkling of deletes
// and the DSU reference over the surviving edges.
func randomStream(numNodes uint32, n int, seed uint64) ([]stream.Update, *dsu.DSU) {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	present := map[stream.Edge]bool{}
	var ups []stream.Update
	for len(ups) < n {
		e := stream.Edge{U: uint32(rng.Uint64N(uint64(numNodes))), V: uint32(rng.Uint64N(uint64(numNodes)))}.Normalize()
		if e.U == e.V {
			continue
		}
		if present[e] && rng.Uint64N(3) == 0 {
			present[e] = false
			ups = append(ups, stream.Update{Edge: e, Type: stream.Delete})
			continue
		}
		if !present[e] {
			present[e] = true
			ups = append(ups, stream.Update{Edge: e, Type: stream.Insert})
		}
	}
	exact := dsu.New(int(numNodes))
	for e, ok := range present {
		if ok {
			exact.Union(e.U, e.V)
		}
	}
	return ups, exact
}

func TestClusterMatchesReference(t *testing.T) {
	const numNodes = 96
	for _, k := range []int{1, 2, 4} {
		k := k
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc := startCluster(t, numNodes, 7, k, ClientConfig{}, nil)
			ups, exact := randomStream(numNodes, 1500, uint64(k))
			ctx := context.Background()
			for off := 0; off < len(ups); off += 100 {
				end := off + 100
				if end > len(ups) {
					end = len(ups)
				}
				if err := tc.co.Ingest(ups[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.co.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
			_, count, err := tc.co.ConnectedComponents(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if count != exact.Count() {
				t.Fatalf("components = %d, want %d", count, exact.Count())
			}
			if got := tc.co.MergedUpdates(); got != uint64(len(ups)) {
				t.Fatalf("merged cut covers %d updates, accepted %d", got, len(ups))
			}
			// Range partitioning actually spread the work (k > 1).
			if k > 1 {
				busy := 0
				for _, wk := range tc.workers {
					if wk.Stats().Updates > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Fatalf("only %d of %d workers saw updates", busy, k)
				}
			}
			tc.shutdown(t)
			assertNoGoroutineLeak(t, before)
		})
	}
}

func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		n = runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines %d before, %d after shutdown", before, n)
}

// faultTransport is the network analogue of iomodel.FaultDevice: it
// allows failAfter requests through untouched, then injects the
// configured fault on every subsequent matching request (or just once
// with once set).
type faultTransport struct {
	inner     http.RoundTripper
	mode      string // "drop-response", "truncate-body", "corrupt-version"
	pathMatch string // only fault requests whose path contains this
	failAfter int64
	once      bool
	ops       atomic.Int64
	injected  atomic.Int64
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.pathMatch != "" && !strings.Contains(req.URL.Path, f.pathMatch) {
		return f.inner.RoundTrip(req)
	}
	n := f.ops.Add(1)
	fault := n > f.failAfter
	if fault && f.once && n > f.failAfter+1 {
		fault = false
	}
	if !fault {
		return f.inner.RoundTrip(req)
	}
	f.injected.Add(1)
	resp, err := f.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch f.mode {
	case "drop-response":
		// The server processed the request, but the connection died
		// before the response arrived — the lost-ack retry case.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("faulttransport: connection reset mid-response")
	case "truncate-body":
		// The connection drops halfway through the payload; the receiver
		// sees a clean EOF short of the declared frame length.
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	case "corrupt-version":
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) > 4 {
			body[4] = WireVersion + 9
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	}
	return resp, nil
}

// TestRetryReplayNoDoubleApply kills the response of an ingest send
// after the worker applied it, forcing the client to replay the same
// sequence number; the worker's dedup gate must drop the replay so the
// batch lands exactly once.
func TestRetryReplayNoDoubleApply(t *testing.T) {
	const numNodes = 64
	wk, err := NewWorker(core.Config{NumNodes: numNodes, Seed: 3}, 0, numNodes)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	ft := &faultTransport{
		inner:     http.DefaultTransport,
		mode:      "drop-response",
		pathMatch: PathIngest,
		failAfter: 3, // 3 clean sends, then kill exactly one response
		once:      true,
	}
	cl := NewClient(srv.URL, ClientConfig{
		RetryBackoff: time.Millisecond,
		HTTPClient:   &http.Client{Transport: ft},
	})

	ups, exact := randomStream(numNodes, 600, 11)
	ctx := context.Background()
	for off := 0; off < len(ups); off += 50 {
		if err := cl.Send(ctx, ups[off:off+50]); err != nil {
			t.Fatal(err)
		}
	}
	if ft.injected.Load() == 0 {
		t.Fatal("fault never injected")
	}
	if cl.Stats().Retries == 0 {
		t.Fatal("client never retried")
	}
	if cl.Stats().Duplicates == 0 {
		t.Fatal("replay was not deduplicated (no duplicate ack seen)")
	}
	st := wk.Stats()
	if st.Duplicates == 0 {
		t.Fatal("worker reports no duplicate drops")
	}
	if st.Updates != uint64(len(ups)) {
		t.Fatalf("worker applied %d updates, stream had %d — replay double-applied", st.Updates, len(ups))
	}
	// The sketches prove it: a double-applied XOR batch would cancel
	// itself out of the graph.
	if err := wk.Engine().Drain(); err != nil {
		t.Fatal(err)
	}
	_, count, err := wk.Engine().ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count != exact.Count() {
		t.Fatalf("components = %d, want %d", count, exact.Count())
	}
}

// TestCheckpointConnDropSurfaces drops the checkpoint transfer
// mid-body; the coordinator must surface a typed truncation error, not
// merge partial state.
func TestCheckpointConnDropSurfaces(t *testing.T) {
	tc := startCluster(t, 32, 5, 2, ClientConfig{
		MaxAttempts:  1,
		RetryBackoff: time.Millisecond,
	}, func(inner http.RoundTripper) http.RoundTripper {
		return &faultTransport{inner: inner, mode: "truncate-body", pathMatch: PathCheckpoint, failAfter: 0}
	})
	defer func() {
		// Close without the final refresh (it would fail on the fault).
		tc.co.closed.Store(true)
		for _, srv := range tc.servers {
			srv.Close()
		}
		for _, wk := range tc.workers {
			wk.Close()
		}
	}()
	ups, _ := randomStream(32, 200, 9)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	err := tc.co.Refresh(context.Background())
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("refresh err = %v, want ErrTruncatedFrame", err)
	}
}

// TestVersionMismatchSurfaces corrupts the response frame's version
// byte; the client must fail with the typed version error.
func TestVersionMismatchSurfaces(t *testing.T) {
	wk, err := NewWorker(core.Config{NumNodes: 16, Seed: 2}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	ft := &faultTransport{inner: http.DefaultTransport, mode: "corrupt-version", pathMatch: PathIngest, failAfter: 0}
	cl := NewClient(srv.URL, ClientConfig{
		MaxAttempts:  1,
		RetryBackoff: time.Millisecond,
		HTTPClient:   &http.Client{Transport: ft},
	})
	err = cl.Send(context.Background(), []stream.Update{{Edge: stream.Edge{U: 0, V: 1}}})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

// TestWorkerRejectsGarbage posts non-frame bytes and asserts the typed
// wire error comes back.
func TestWorkerRejectsGarbage(t *testing.T) {
	wk, err := NewWorker(core.Config{NumNodes: 16, Seed: 2}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+PathIngest, "application/octet-stream", io.NopCloser(io.LimitReader(rand.NewChaCha8([32]byte{1}), 64)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	_, perr := expectFrame(resp.Body, MsgAck)
	var re *RemoteError
	if !errors.As(perr, &re) || re.Code != CodeBadRequest {
		t.Fatalf("err = %v, want CodeBadRequest RemoteError", perr)
	}
}

// TestStatszEndpoints checks both roles serve their JSON stats
// documents with the advertised fields.
func TestStatszEndpoints(t *testing.T) {
	tc := startCluster(t, 48, 13, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	ups, _ := randomStream(48, 300, 17)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := tc.co.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wst WorkerStats
	resp, err := http.Get(tc.servers[0].URL + PathStatsz)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wst.Engine.Updates != wst.Updates {
		t.Fatalf("worker statsz: engine %d updates vs endpoint %d", wst.Engine.Updates, wst.Updates)
	}

	csrv := httptest.NewServer(tc.co.Handler())
	defer csrv.Close()
	resp, err = http.Get(csrv.URL + PathStatsz)
	if err != nil {
		t.Fatal(err)
	}
	var cst CoordStats
	if err := json.NewDecoder(resp.Body).Decode(&cst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cst.Accepted != uint64(len(ups)) {
		t.Fatalf("coordinator accepted %d, want %d", cst.Accepted, len(ups))
	}
	if len(cst.Workers) != 2 {
		t.Fatalf("coordinator reports %d workers", len(cst.Workers))
	}
	// An update crossing the two ranges is sent to both owners.
	var sent, want uint64
	for _, w := range cst.Workers {
		sent += w.Updates
	}
	for _, u := range ups {
		if i, j := tc.co.part.Owners(u); i != j {
			want++
		}
		want++
	}
	if sent != want {
		t.Fatalf("per-worker sends total %d, want %d", sent, want)
	}
	if cst.Merges == 0 || cst.LastMergeUpdates != uint64(len(ups)) {
		t.Fatalf("merge accounting: %+v", cst)
	}
}

// TestStickySendErrorDoesNotFailIngest pins the fix for the
// double-apply hazard on the coordinator's ingest endpoint: after one
// async send fails permanently, the sticky error must surface on
// Flush/Refresh only — Ingest keeps accepting, and the HTTP handler
// keeps committing sequence numbers and acking, because the batch WAS
// enqueued and a retryable reply would make the client resend it into
// the XOR sketches a second time.
func TestStickySendErrorDoesNotFailIngest(t *testing.T) {
	tc := startCluster(t, 32, 5, 1, ClientConfig{
		MaxAttempts:  1,
		RetryBackoff: time.Millisecond,
	}, func(inner http.RoundTripper) http.RoundTripper {
		// Every worker-bound ingest POST loses its response: the send path
		// fails permanently after MaxAttempts=1.
		return &faultTransport{inner: inner, mode: "drop-response", pathMatch: PathIngest, failAfter: 0}
	})
	defer func() {
		// Close without the final refresh (its flush reports the fault).
		tc.co.closed.Store(true)
		tc.co.lifeCancel()
		for _, srv := range tc.servers {
			srv.Close()
		}
		for _, wk := range tc.workers {
			wk.Close()
		}
	}()

	// Trip the sticky error: enough updates to fill a sub-batch (64) and
	// trigger a doomed async send, then wait for it to settle.
	ups, _ := randomStream(32, 128, 9)
	if err := tc.co.Ingest(ups); err != nil {
		t.Fatalf("Ingest returned %v; accepted batches must not fail", err)
	}
	if err := tc.co.clients[0].Drain(); err == nil {
		t.Fatal("send fault never surfaced on Drain")
	}

	// Ingest still accepts (the sticky error belongs to Flush/Refresh).
	if err := tc.co.Ingest(ups[:10]); err != nil {
		t.Fatalf("Ingest after sticky send error = %v, want nil", err)
	}

	// The framed endpoint must commit and ack, and dedup the replay.
	csrv := httptest.NewServer(tc.co.Handler())
	defer csrv.Close()
	frame := AppendFrame(nil, MsgIngest, EncodeIngest(5, ups[:4]))
	for i, wantApplied := range []bool{true, false} {
		resp, err := http.Post(csrv.URL+PathIngest, "application/x-gzw1", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := expectFrame(resp.Body, MsgAck)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %d: %v, want an ack (a retryable error here double-applies)", i, err)
		}
		if _, applied, _ := DecodeAck(payload); applied != wantApplied {
			t.Fatalf("POST %d: applied = %v, want %v", i, applied, wantApplied)
		}
	}

	// The failure is still reported — out-of-band, on Flush.
	if err := tc.co.Flush(); err == nil {
		t.Fatal("Flush swallowed the sticky send error")
	}
}

// TestWorkerEngineFaultCommitsSeq drives a worker whose engine sits on a
// faulty device until an ingest fails mid-pipeline. The reply must be
// the non-retryable CodeFailed with the sequence number committed: the
// batch may already be buffered, so a replay has to be deduplicated, not
// applied again.
func TestWorkerEngineFaultCommitsSeq(t *testing.T) {
	wk, err := NewWorker(core.Config{
		NumNodes:       32,
		Seed:           51,
		SketchesOnDisk: true,
		CacheBytes:     1,       // one resident group: nearly every batch evicts one
		BufferFactor:   0.00001, // tiny gutters: every update hits the device
		DeviceFactory: func(string) (iomodel.Device, error) {
			return iomodel.NewFault(iomodel.NewMem(512), 200), nil
		},
	}, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, ClientConfig{MaxAttempts: 1, RetryBackoff: time.Millisecond})

	ctx := context.Background()
	var sendErr error
	for i := 0; i < 3000 && sendErr == nil; i++ {
		u := uint32(i % 31)
		sendErr = cl.Send(ctx, []stream.Update{{Edge: stream.Edge{U: u, V: u + 1}, Type: stream.Insert}})
	}
	if sendErr == nil {
		t.Fatal("device fault never surfaced through ingest")
	}
	var re *RemoteError
	if !errors.As(sendErr, &re) || re.Code != CodeFailed || re.Retryable() {
		t.Fatalf("err = %v, want non-retryable CodeFailed", sendErr)
	}

	// Replaying the failed sequence number must hit the dedup gate.
	failSeq := cl.seq.Load()
	frame := AppendFrame(nil, MsgIngest, EncodeIngest(failSeq, []stream.Update{{Edge: stream.Edge{U: 1, V: 2}, Type: stream.Insert}}))
	resp, err := http.Post(srv.URL+PathIngest, "application/x-gzw1", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := expectFrame(resp.Body, MsgAck)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("replay of failed seq: %v, want duplicate ack", err)
	}
	if _, applied, _ := DecodeAck(payload); applied {
		t.Fatal("replay of a committed-but-failed seq was applied again")
	}
}

// TestClientDrainConcurrentWithSendAsync overlaps Drain with a stream of
// SendAsync calls; the old WaitGroup-based accounting could panic with
// "Add called concurrently with Wait" under exactly this interleaving
// (Coordinator.Ingest vs Refresh).
func TestClientDrainConcurrentWithSendAsync(t *testing.T) {
	wk, err := NewWorker(core.Config{NumNodes: 16, Seed: 2}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL, ClientConfig{MaxInFlight: 2})

	ctx := context.Background()
	batch := []stream.Update{{Edge: stream.Edge{U: 0, V: 1}, Type: stream.Insert}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			cl.SendAsync(ctx, batch)
		}
	}()
	for drained := false; !drained; {
		select {
		case <-done:
			drained = true
		default:
		}
		if err := cl.Drain(); err != nil {
			t.Error(err)
			break
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().Batches; got != 200 {
		t.Fatalf("acknowledged %d batches, want 200", got)
	}
}

// TestCoordinatorIngestEndpointDedup replays a framed ingest POST with
// the same sequence number; the coordinator must accept it once.
func TestCoordinatorIngestEndpointDedup(t *testing.T) {
	tc := startCluster(t, 32, 21, 2, ClientConfig{}, nil)
	defer tc.shutdown(t)
	csrv := httptest.NewServer(tc.co.Handler())
	defer csrv.Close()

	ups := []stream.Update{{Edge: stream.Edge{U: 1, V: 2}}, {Edge: stream.Edge{U: 3, V: 4}}}
	// Send the same seq twice through the raw wire (bypassing the
	// client's own numbering) — a replayed POST.
	frame := AppendFrame(nil, MsgIngest, EncodeIngest(77, ups))
	post := func() (applied bool) {
		resp, err := http.Post(csrv.URL+PathIngest, "application/x-gzw1", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := expectFrame(resp.Body, MsgAck)
		if err != nil {
			t.Fatal(err)
		}
		_, applied, err = DecodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		return applied
	}
	if !post() {
		t.Fatal("first POST not applied")
	}
	if post() {
		t.Fatal("replayed POST applied twice")
	}
	if got := tc.co.Stats().Accepted; got != uint64(len(ups)) {
		t.Fatalf("accepted %d updates, want %d", got, len(ups))
	}
}
