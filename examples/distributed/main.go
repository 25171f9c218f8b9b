// Command distributed demonstrates the paper's conclusion claim that
// GraphZeppelin's sketches "can be partitioned throughout a distributed
// cluster" — here over a real network stack. It stands up the gzserve
// topology on localhost: K workers, each a full engine owning a node
// range, behind HTTP servers; a coordinator that routes framed edge
// batches to them with pipelined, idempotent sends; and a driver
// speaking the GZW1 wire protocol to the coordinator. At query time the
// coordinator pulls every worker's checkpoint, XOR-merges them
// into an aggregator, and one Boruvka pass answers for the whole
// stream.
//
// Worker 0 additionally runs durable — write-ahead log plus local
// checkpoint in a state directory — and the demo crashes it mid-stream
// and restarts it on the same address. The restarted worker recovers
// its engine and its ingest dedup gate from disk before serving, the
// coordinator's retrying sends ride out the outage, and the final
// global answer is as if nothing had happened.
//
// The same topology runs as separate processes with cmd/gzserve (the
// crash then being a real SIGKILL; see the "Distributed deployment"
// section of the README). Here everything lives in one process so the
// demo is `go run`-able, but every byte still crosses a TCP socket.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/wal"
)

const (
	scale = 8
	k     = 3 // workers
	seed  = 99
)

func main() {
	edges := kron.DenseKronecker(scale, 3)
	res := kron.ToStream(edges, 1<<scale, kron.StreamOptions{}, 4)
	fmt.Printf("stream: %d nodes, %d updates\n", res.NumNodes, len(res.Updates))

	stateDir, err := os.MkdirTemp("", "gzdemo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)

	// Start K workers, each owning one node range of the universe.
	// Worker 0 is durable: every acked batch is in its write-ahead log
	// before the ack leaves, so it can be crashed and recovered.
	part, err := gzserve.NewRangePartitioner(res.NumNodes, k)
	if err != nil {
		log.Fatal(err)
	}
	dur := gzserve.Durability{StateDir: stateDir, Fsync: wal.FsyncBatch}
	lo0, hi0 := part.Range(0)
	w0, _, err := gzserve.NewDurableWorker(core.Config{NumNodes: res.NumNodes, Seed: seed}, lo0, hi0, dur)
	if err != nil {
		log.Fatal(err)
	}
	w0ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	w0addr := w0ln.Addr().String()
	w0srv := &http.Server{Handler: w0.Handler()}
	go w0srv.Serve(w0ln)
	workerURLs := []string{"http://" + w0addr}
	fmt.Printf("worker 0: http://%s owns nodes [%d,%d) — durable in %s\n", w0addr, lo0, hi0, stateDir)

	for i := 1; i < k; i++ {
		lo, hi := part.Range(i)
		wk, err := gzserve.NewWorker(core.Config{NumNodes: res.NumNodes, Seed: seed}, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		defer wk.Close()
		url := listenAndServe(wk.Handler())
		workerURLs = append(workerURLs, url)
		fmt.Printf("worker %d: %s owns nodes [%d,%d)\n", i, url, lo, hi)
	}

	// The coordinator validates each worker's /v1/info handshake, then
	// routes by node range with bounded in-flight windows per worker.
	// Give the sends a retry budget generous enough to span the crash.
	co, err := gzserve.NewCoordinator(gzserve.CoordinatorConfig{
		Engine:    core.Config{NumNodes: res.NumNodes, Seed: seed},
		Workers:   workerURLs,
		BatchSize: 1024,
		Client:    gzserve.ClientConfig{MaxAttempts: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	coordURL := listenAndServe(co.Handler())
	fmt.Printf("coordinator: %s\n", coordURL)

	// Drive the first half of the stream through the coordinator's
	// framed HTTP ingest endpoint, like a remote producer would.
	ctx := context.Background()
	drv := gzserve.NewClient(coordURL, gzserve.ClientConfig{})
	half := len(res.Updates) / 2
	for off := 0; off < half; off += 512 {
		end := min(off+512, half)
		drv.SendAsync(ctx, res.Updates[off:end])
	}

	// Crash worker 0 with sends still in flight: tear its server down
	// abruptly and discard the worker without any graceful shutdown.
	// Whatever its WAL holds is all that survives — as in a power cut.
	w0srv.Close()
	w0.Engine().Close()
	fmt.Printf("worker 0: crashed mid-stream (no graceful shutdown)\n")

	// Restart it on the same address from the same state directory. The
	// coordinator keeps retrying against the URL it was born with; the
	// recovered dedup gate drops retries of batches the dead process had
	// already logged, so nothing is double-applied.
	w0ln = relisten(w0addr)
	w0, rec, err := gzserve.NewDurableWorker(core.Config{NumNodes: res.NumNodes, Seed: seed}, lo0, hi0, dur)
	if err != nil {
		log.Fatal(err)
	}
	defer w0.Close()
	w0srv = &http.Server{Handler: w0.Handler()}
	go w0srv.Serve(w0ln)
	fmt.Printf("worker 0: restarted on http://%s — recovered %d batches / %d updates from the WAL\n",
		w0addr, rec.Records, rec.Updates)

	// The rest of the stream, business as usual.
	for off := half; off < len(res.Updates); off += 512 {
		end := min(off+512, len(res.Updates))
		drv.SendAsync(ctx, res.Updates[off:end])
	}
	if err := drv.Drain(); err != nil {
		log.Fatal(err)
	}

	// Refresh = drain windows + pull and merge every worker's checkpoint;
	// queries then answer over that global cut.
	if err := co.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	_, count, err := co.ConnectedComponents(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global components (merged from %d workers): %d\n", k, count)

	st := co.Stats()
	for i, w := range st.Workers {
		fmt.Printf("  worker %d: %d batches, %d updates, %d retries, %d deduped\n",
			i, w.Batches, w.Updates, w.Retries, w.Duplicates)
	}
	fmt.Printf("  merged cut covered %d/%d updates\n", st.LastMergeUpdates, len(res.Updates))

	// A trickle of further updates, then a second refresh. The first
	// refresh acknowledged a full checkpoint per worker, so this one rides
	// the delta path: each worker ships only the node sketches dirtied
	// since its acked seal (GET /v1/checkpoint?since=<id>), and the
	// coordinator patches exactly those nodes into the live merged view
	// instead of rebuilding it.
	// Re-sending a prefix of the stream XOR-cancels those edges — a
	// deletion trickle. Small enough to stay under every worker's delta
	// threshold (20% of the node universe dirty since its last seal).
	fullBytes := pulledBytes(co)
	trickle := res.Updates[:24]
	if err := co.Ingest(trickle); err != nil {
		log.Fatal(err)
	}
	if err := co.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := co.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	_, count2, err := co.ConnectedComponents(ctx)
	if err != nil {
		log.Fatal(err)
	}
	st = co.Stats()
	var deltas uint64
	for _, w := range st.Workers {
		deltas += w.DeltaCheckpoints
	}
	fmt.Printf("delta refresh after a %d-update trickle: %d delta pulls, %d bytes (the full pull was %d); components: %d\n",
		len(trickle), deltas, pulledBytes(co)-fullBytes, fullBytes, count2)
	fmt.Printf("  coordinator took the delta path %d time(s)\n", st.DeltaRefreshes)

	if err := co.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("worker 0 died mid-stream and nobody lost an update; linearity stitched the answer together over HTTP")
}

// pulledBytes sums the checkpoint bytes the coordinator has pulled from
// its workers so far.
func pulledBytes(co *gzserve.Coordinator) uint64 {
	var n uint64
	for _, w := range co.Stats().Workers {
		n += w.CheckpointBytes
	}
	return n
}

// listenAndServe serves h on an OS-picked loopback port and returns its
// base URL. The demo process exits when main returns, so servers are
// not individually shut down.
func listenAndServe(h http.Handler) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, h)
	return "http://" + ln.Addr().String()
}

// relisten rebinds addr, retrying briefly while the crashed server's
// socket finishes closing.
func relisten(addr string) net.Listener {
	for i := 0; ; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if i > 200 {
			log.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
