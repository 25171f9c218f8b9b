package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"time"

	"graphzeppelin/benchmark/layers"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
)

const clusterWorkers = 2

// cluster is an in-process gzserve deployment: workers behind loopback
// HTTP listeners, a delta-refresh coordinator the stream is ingested
// through, and a NoDeltaRefresh coordinator over the same workers for
// the forced-full refreshes.
type cluster struct {
	// transport carries every connection into the cluster, so shutdown
	// can close the idle ones: a connection the transport dialled ahead
	// and never used would otherwise hold http.Server.Shutdown up for the
	// five seconds it gives a new connection to send its first request.
	transport *http.Transport
	workers   []*gzserve.Worker
	servers   []*http.Server
	served    []chan struct{}
	addrs     []string
	delta     *gzserve.Coordinator
	full      *gzserve.Coordinator
}

func startCluster(numNodes uint32, seed uint64) (cl *cluster, err error) {
	cl = &cluster{transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer func() {
		if err != nil {
			cl.shutdown()
		}
	}()
	engine := core.Config{NumNodes: numNodes, Seed: seed}
	part, err := gzserve.NewRangePartitioner(numNodes, clusterWorkers)
	if err != nil {
		return cl, err
	}
	for i := 0; i < clusterWorkers; i++ {
		lo, hi := part.Range(i)
		wk, err := gzserve.NewWorker(engine, lo, hi)
		if err != nil {
			return cl, err
		}
		cl.workers = append(cl.workers, wk)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cl, err
		}
		srv := &http.Server{Handler: wk.Handler()}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln) // returns once Shutdown closes the listener
		}()
		cl.servers = append(cl.servers, srv)
		cl.served = append(cl.served, served)
		cl.addrs = append(cl.addrs, "http://"+ln.Addr().String())
	}
	cfg := gzserve.CoordinatorConfig{Engine: engine, Workers: cl.addrs, BatchSize: batchLen, Client: cl.clientConfig()}
	if cl.delta, err = gzserve.NewCoordinator(cfg); err != nil {
		return cl, err
	}
	cfg.NoDeltaRefresh = true
	cl.full, err = gzserve.NewCoordinator(cfg)
	return cl, err
}

func (cl *cluster) clientConfig() gzserve.ClientConfig {
	return gzserve.ClientConfig{HTTPClient: &http.Client{Transport: cl.transport}}
}

// shutdown stops everything startCluster started and waits for it:
// coordinators first (their Close refreshes once more), then the HTTP
// servers, then the workers' engines.
func (cl *cluster) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, co := range []*gzserve.Coordinator{cl.delta, cl.full} {
		if co != nil {
			errs = append(errs, co.Close(ctx))
		}
	}
	cl.transport.CloseIdleConnections()
	for i, srv := range cl.servers {
		errs = append(errs, srv.Shutdown(ctx))
		<-cl.served[i]
	}
	for _, wk := range cl.workers {
		errs = append(errs, wk.Close())
	}
	return errors.Join(errs...)
}

func checkpointBytes(co *gzserve.Coordinator) (n uint64) {
	for _, w := range co.Stats().Workers {
		n += w.CheckpointBytes
	}
	return n
}

// runCluster drives cluster-refresh: bulk through Coordinator.Ingest and
// Flush, one full refresh, then cycles of trickle -> Flush -> Refresh ->
// ConnectedComponents on the delta coordinator, with a forced-full
// refresh and query on the NoDeltaRefresh coordinator every fullEvery
// cycles. Both coordinators' answers are hashed for the parent to check.
func (c *child) runCluster() error {
	ctx := context.Background()
	n, ups := c.in.NumNodes, c.in.Updates
	m := c.res.Metrics

	for i := 0; i < setupCycles; i++ {
		t0 := time.Now()
		cl, err := startCluster(n, c.plan.Seed)
		if err != nil {
			return err
		}
		if err := cl.delta.Ingest(ups[:1]); err != nil {
			return err
		}
		c.sample("setup_s", time.Since(t0))
		if err := cl.shutdown(); err != nil {
			return err
		}
		releaseMemory() // a stopped cluster must not count towards peak RSS
	}
	c.setMedian("setup_s", 1e-3)

	cl, err := startCluster(n, c.plan.Seed)
	if err != nil {
		return err
	}
	defer cl.shutdown()
	answer := func(co *gzserve.Coordinator, name string, parent int) time.Duration {
		var rep []uint32
		d := c.span(name, parent, func() error {
			var err error
			rep, _, err = co.ConnectedComponents(ctx)
			return err
		})
		c.recordAnswer(rep)
		return d
	}

	phase := c.rec.Begin("phase.bulk", c.root)
	t0 := time.Now()
	for pass := 1; pass <= c.plan.BulkPasses; pass++ {
		if pass > 1 {
			c.flipRange(0, len(ups))
		}
		for off := 0; off < len(ups); off += batchLen {
			end := min(off+batchLen, len(ups))
			c.span("gzserve.Coordinator.Ingest", phase, func() error { return cl.delta.Ingest(ups[off:end]) })
		}
	}
	c.span("gzserve.Coordinator.Flush", phase, cl.delta.Flush)
	wall := time.Since(t0)
	c.rec.End(phase)
	updates := c.plan.BulkPasses * len(ups)
	m["ingest_mups"] = float64(updates) / wall.Seconds() / 1e6

	c.span("gzserve.Coordinator.Refresh/first", c.root, func() error { return cl.delta.Refresh(ctx) })
	answer(cl.delta, "gzserve.Coordinator.ConnectedComponents/first", c.root)

	// In a traced run a client of our own pulls worker 0's checkpoints,
	// full and delta, beside the coordinators' refreshes.
	var puller *gzserve.Client
	var pulledID uint64
	pull := func(name string, since uint64, parent int) {
		c.span(name, parent, func() error {
			body, got, err := puller.Checkpoint(ctx, since)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, body)
			pulledID = got.ID
			return errors.Join(err, body.Close())
		})
	}
	if c.rec != nil {
		puller = gzserve.NewClient(cl.addrs[0], cl.clientConfig())
		pull("gzserve.Client.Checkpoint/full", 0, c.root)
	}

	phase = c.rec.Begin("phase.serve", c.root)
	var served int
	var refreshBytes []float64
	for cyc := 0; cyc < clusterCycles; cyc++ {
		trickle := c.in.Trickles[cyc]
		tf := time.Now()
		c.span("gzserve.Coordinator.Ingest/trickle", phase, func() error { return cl.delta.Ingest(trickle) })
		c.span("gzserve.Coordinator.Flush", phase, cl.delta.Flush)
		bytes0, deltas0 := checkpointBytes(cl.delta), cl.delta.Stats().DeltaRefreshes
		d := c.span("gzserve.Coordinator.Refresh/delta", phase, func() error { return cl.delta.Refresh(ctx) })
		c.sample("gzserve.refresh_delta_ms", d)
		if cl.delta.Stats().DeltaRefreshes != deltas0+1 {
			c.fail("cycle %d: the trickle refresh did not take the delta path", cyc)
		}
		refreshBytes = append(refreshBytes, float64(checkpointBytes(cl.delta)-bytes0))
		c.sample("query_delta_ms", answer(cl.delta, "gzserve.Coordinator.ConnectedComponents/delta", phase))
		c.sample("fresh_ms", time.Since(tf))
		served += len(trickle)

		if puller != nil {
			pull("gzserve.Client.Checkpoint/delta", pulledID, phase)
		}
		if cyc%fullEvery == fullEvery-1 {
			c.sample("refresh_full_ms", c.span("gzserve.Coordinator.Refresh/full", phase, func() error { return cl.full.Refresh(ctx) }))
			c.sample("query_cold_ms", answer(cl.full, "gzserve.Coordinator.ConnectedComponents/cold", phase))
			if puller != nil {
				pull("gzserve.Client.Checkpoint/full", 0, phase)
			}
		}
	}
	c.rec.End(phase)
	for _, name := range []string{"query_cold_ms", "refresh_full_ms"} {
		c.setMedian(name, 1)
	}
	for _, name := range []string{"query_delta_ms", "fresh_ms", "gzserve.refresh_delta_ms"} {
		c.setTrickleMedian(name)
	}
	m["serve_mups"] = float64(served) / clusterCycles / m["fresh_ms"] / 1e3
	m["core.query.cold_p90_ms"] = quantile(c.samples["query_cold_ms"], 0.9)
	m["core.query.delta_p90_ms"] = quantile(c.samples["query_delta_ms"], 0.9)
	m["gzserve.refresh_bytes"] = mean(refreshBytes)
	m["gzserve.coord_query_ms"] = median(append(append([]float64(nil), c.samples["query_cold_ms"]...), c.samples["query_delta_ms"]...))

	for _, w := range cl.delta.Stats().Workers {
		m["gzserve.frames"] += float64(w.Batches)
		m["gzserve.retries"] += float64(w.Retries)
		m["gzserve.duplicates"] += float64(w.Duplicates)
		if w.Failed > 0 {
			c.fail("%d ingest frames to %s were abandoned", w.Failed, w.Addr)
		}
	}
	if want := uint64(updates + served); cl.delta.MergedUpdates() != want || cl.full.MergedUpdates() != want {
		c.fail("merged views cover %d and %d updates, %d were ingested", cl.delta.MergedUpdates(), cl.full.MergedUpdates(), want)
	}

	if c.rec == nil {
		return nil
	}
	m["gzserve.pull_full_ms"] = median(c.spanMillis("gzserve.Client.Checkpoint/full"))
	m["gzserve.pull_delta_ms"] = median(c.spanMillis("gzserve.Client.Checkpoint/delta"))
	g := c.geometry()
	m["cubesketch.query_ns"] = layers.SketchQuery(g)
	if m["cubesketch.merge_ns_per_sketch"], err = layers.MergeSerialized(g); err != nil {
		return err
	}
	if m["stream.decode_ns_per_update"], m["gzserve.wire_encode_ns_per_update"], m["gzserve.wire_decode_ns_per_update"], err = layers.Codec(g, batchLen); err != nil {
		return err
	}
	m["gzserve.send_rtt_us"], err = layers.SendRTT(g, batchLen)
	return err
}
