// Command gzserve runs one process of a networked GraphZeppelin
// cluster. A worker owns one node range of the universe: its engine
// sketches only those nodes, ingests the updates the coordinator routes
// to it (every update touching the range) and serves batch-ingest,
// checkpoint, info and stats endpoints. A coordinator sends each update
// to the workers owning its two endpoints, pipelines the sends with
// bounded in-flight windows and retry/backoff, and answers global
// connectivity queries from one view that concatenates the workers'
// ranges.
//
// A 2-worker localhost cluster (-worker-index/-worker-count give each
// worker its range; the coordinator refuses a worker whose range is not
// its partition's):
//
//	gzserve -mode worker -listen 127.0.0.1:7001 -nodes 1024 -seed 7 -worker-index 0 -worker-count 2 &
//	gzserve -mode worker -listen 127.0.0.1:7002 -nodes 1024 -seed 7 -worker-index 1 -worker-count 2 &
//	gzserve -mode coordinator -listen 127.0.0.1:7000 -nodes 1024 -seed 7 \
//	        -workers http://127.0.0.1:7001,http://127.0.0.1:7002
//
// Drive it with framed POSTs to the coordinator's /v1/ingest, then
// POST /v1/refresh and GET /v1/components (see internal/gzserve for the
// GZW1 frame layout, or examples/distributed for a complete driver).
//
// With -state-dir a worker is durable: every acked ingest batch is in a
// write-ahead log under the directory before the ack leaves (fsync
// policy per -fsync), -checkpoint-interval bounds the log with periodic
// local checkpoints (sparse delta files while few nodes changed, up to 8
// between fulls; -delta-threshold -1 makes every one full), and a worker
// restarted after a crash — same -state-dir — auto-recovers its engine
// and its ingest dedup gate before serving, so coordinator retries of
// batches the dead process acked are deduplicated instead of
// double-applied:
//
//	gzserve -mode worker -listen 127.0.0.1:7001 -nodes 1024 -seed 7 \
//	        -worker-index 0 -worker-count 2 -state-dir /var/lib/gz/w0 -checkpoint-interval 30s
//
// On SIGINT/SIGTERM both modes shut down gracefully: the coordinator
// drains its send windows and runs one final refresh before exiting; a worker drains its engine, writes its -state-dir checkpoint
// if durable and, with -final-checkpoint, writes a checkpoint file of
// its final state. Both log their /statsz document on the way out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gzserve: ")
	os.Exit(run())
}

func run() int {
	// -seed, -shards, -fsync, -fsync-interval, -wal-segment-bytes and
	// -delta-threshold write the engine config directly; the WAL flags
	// only take effect on a worker with -state-dir.
	var ecfg core.Config
	ecfg.RegisterFlags(flag.CommandLine)
	var (
		mode      = flag.String("mode", "", "role: worker or coordinator (required)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the actual listen address to this file once serving (for launchers using port 0)")
		nodes     = flag.Uint("nodes", 0, "node-universe size (required; must match across the cluster)")
		workerIdx = flag.Int("worker-index", -1, "worker: this worker's partition index; with -worker-count it sets the node range the worker sketches (required in a multi-worker cluster; without them the worker owns the whole universe)")
		workerCnt = flag.Int("worker-count", 0, "worker: total workers in the cluster (with -worker-index)")
		finalCkpt = flag.String("final-checkpoint", "", "worker: write a full checkpoint here on graceful shutdown")
		stateDir  = flag.String("state-dir", "", "worker: durable state directory (checkpoint + write-ahead log); every acked batch survives a crash and the worker auto-recovers from it on startup")
		ckptIntv  = flag.Duration("checkpoint-interval", 0, "worker: periodic local checkpoint period with -state-dir (0 = only on shutdown); full checkpoints truncate the covered WAL prefix")
		workers   = flag.String("workers", "", "coordinator: comma-separated worker base URLs, in partition order (required)")
		batch     = flag.Int("dispatch-batch", 4096, "coordinator: per-worker dispatch threshold in updates")
		window    = flag.Int("window", 4, "coordinator: max in-flight sends per worker")
		attempts  = flag.Int("attempts", 6, "coordinator: send attempts per batch before giving up")
		mergeIntv = flag.Duration("merge-interval", 0, "coordinator: background refresh period (0 = only on /v1/refresh and shutdown)")
		noDeltaRf = flag.Bool("no-delta-refresh", false, "coordinator: pull every worker's full checkpoint and install it into the view on every refresh, never a delta")
	)
	flag.Parse()

	if *mode != "worker" && *mode != "coordinator" {
		log.Printf("-mode must be worker or coordinator")
		return 2
	}
	if *nodes < 2 {
		log.Printf("-nodes must be at least 2")
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Printf("listen: %v", err)
		return 1
	}
	addr := ln.Addr().String()
	log.Printf("%s listening on %s", *mode, addr)
	if *addrFile != "" {
		// Write to a temp name then rename, so a launcher polling the
		// file never reads a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
			log.Printf("addr-file: %v", err)
			return 1
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Printf("addr-file: %v", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ecfg.NumNodes = uint32(*nodes)
	switch *mode {
	case "worker":
		dur := gzserve.Durability{StateDir: *stateDir, CheckpointInterval: *ckptIntv}
		return runWorker(ctx, ln, ecfg, *workerIdx, *workerCnt, *finalCkpt, dur)
	default:
		return runCoordinator(ctx, ln, ecfg, *workers, *batch, *window, *attempts, *mergeIntv, *noDeltaRf)
	}
}

// serve runs an HTTP server over ln until ctx is cancelled, then shuts
// it down gracefully (in-flight requests finish).
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

func logStatsz(role string, v any) {
	doc, err := json.Marshal(v)
	if err != nil {
		log.Printf("%s statsz: %v", role, err)
		return
	}
	log.Printf("%s final statsz: %s", role, doc)
}

func runWorker(ctx context.Context, ln net.Listener, ecfg core.Config, idx, cnt int, finalCkpt string, dur gzserve.Durability) int {
	rangeLo, rangeHi := uint32(0), ecfg.NumNodes
	if idx >= 0 && cnt > 0 {
		part, err := gzserve.NewRangePartitioner(ecfg.NumNodes, cnt)
		if err != nil {
			log.Printf("worker: %v", err)
			return 1
		}
		rangeLo, rangeHi = part.Range(idx)
	}
	var wk *gzserve.Worker
	var err error
	if dur.StateDir != "" {
		var rec *core.Recovery
		wk, rec, err = gzserve.NewDurableWorker(ecfg, rangeLo, rangeHi, dur)
		if err == nil {
			log.Printf("worker: durable state in %s (fsync=%s); recovered %d batches / %d updates from the WAL%s",
				dur.StateDir, ecfg.WALFsync, rec.Records, rec.Updates,
				map[bool]string{true: " (torn tail truncated)", false: ""}[rec.Torn])
		}
	} else {
		wk, err = gzserve.NewWorker(ecfg, rangeLo, rangeHi)
	}
	if err != nil {
		log.Printf("worker: %v", err)
		return 1
	}
	if err := serve(ctx, ln, wk.Handler()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("worker: serve: %v", err)
		wk.Close()
		return 1
	}

	// Graceful shutdown: the HTTP server has stopped accepting work;
	// drain the engine, optionally ship the final checkpoint, log stats.
	if err := wk.Engine().Drain(); err != nil {
		log.Printf("worker: drain: %v", err)
	}
	if finalCkpt != "" {
		f, err := os.Create(finalCkpt)
		if err == nil {
			err = wk.Engine().WriteCheckpoint(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Printf("worker: final checkpoint: %v", err)
		} else {
			log.Printf("worker: final checkpoint written to %s", finalCkpt)
		}
	}
	logStatsz("worker", wk.Stats())
	if err := wk.Close(); err != nil {
		log.Printf("worker: close: %v", err)
		return 1
	}
	return 0
}

func runCoordinator(ctx context.Context, ln net.Listener, ecfg core.Config, workerList string, batch, window, attempts int, mergeIntv time.Duration, noDeltaRefresh bool) int {
	var addrs []string
	for _, a := range strings.Split(workerList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Printf("coordinator: -workers is required")
		return 2
	}
	co, err := gzserve.NewCoordinator(gzserve.CoordinatorConfig{
		Engine:         ecfg,
		Workers:        addrs,
		BatchSize:      batch,
		Client:         gzserve.ClientConfig{MaxInFlight: window, MaxAttempts: attempts},
		MergeInterval:  mergeIntv,
		NoDeltaRefresh: noDeltaRefresh,
	})
	if err != nil {
		log.Printf("coordinator: %v", err)
		return 1
	}
	log.Printf("coordinator: %d workers owning node ranges %s", len(addrs), describeRanges(ecfg.NumNodes, len(addrs)))
	if err := serve(ctx, ln, co.Handler()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("coordinator: serve: %v", err)
		co.Close(context.Background())
		return 1
	}

	// Graceful shutdown: drain every send window, pull one final
	// checkpoint from each worker, then report.
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := co.Close(closeCtx); err != nil {
		log.Printf("coordinator: final refresh: %v", err)
		logStatsz("coordinator", co.Stats())
		return 1
	}
	st := co.Stats()
	log.Printf("coordinator: final refresh covered %d updates across %d workers", st.LastMergeUpdates, len(addrs))
	logStatsz("coordinator", st)
	return 0
}

func describeRanges(numNodes uint32, k int) string {
	part, err := gzserve.NewRangePartitioner(numNodes, k)
	if err != nil {
		return "?"
	}
	var b strings.Builder
	for i := 0; i < k; i++ {
		lo, hi := part.Range(i)
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "[%d,%d)", lo, hi)
	}
	return b.String()
}
