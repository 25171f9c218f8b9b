// Command gzrun ingests a GZS1 stream file into any of the package's
// sketch structures and answers that structure's query, printing
// ingestion rate, query latency, memory and I/O statistics — the per-run
// measurements behind the paper's system tables.
//
// Every structure is driven through the shared StreamSketch interface, so
// one ingest loop serves them all; -producers splits ingestion across
// concurrent producer goroutines (per-producer Ingestor sessions on a
// graph, shared ApplyBatch on the extensions, each one engine).
//
// Usage:
//
//	gzrun -stream kron12.gzs -shards 4
//	gzrun -stream kron12.gzs -producers 4 -shards 4
//	gzrun -stream kron12.gzs -structure bipartite
//	gzrun -stream kron12.gzs -disk /mnt/ssd -buffering tree
//	gzrun -stream kron12.gzs -disk /mnt/ssd -cachebytes 67108864 -nodespergroup 16
//
// In disk mode the tiered store's knobs are exposed directly:
// -cachebytes budgets the write-back cache of decoded node groups and
// -nodespergroup sets the group-slot size; the final stats dump prints the
// cache hit/miss/eviction counters.
//
// Durability and distributed merge: -checkpoint writes the structure's
// sketch state after the run (the low-stall checkpoint snapshot);
// -restore starts a graph from a previous checkpoint file instead of
// empty (parallel section decode); -merge XORs shard checkpoints written
// elsewhere into the structure before the final query, so K machines can
// each ingest a disjoint slice of a stream and one gzrun answers for the
// union:
//
//	gzrun -stream shardA.gzs -checkpoint a.gze3
//	gzrun -stream shardB.gzs -merge a.gze3
//	gzrun -stream more.gzs -restore a.gze3 -checkpoint a2.gze3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"graphzeppelin"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gzrun: ")
	var ecfg core.Config
	ecfg.RegisterFlags(flag.CommandLine)
	var (
		path       = flag.String("stream", "", "GZS1 stream file (required)")
		structure  = flag.String("structure", "graph", "structure: graph, bipartite, kforests, msf")
		producers  = flag.Int("producers", 1, "concurrent producer goroutines")
		batch      = flag.Int("batch", 4096, "updates per ApplyBatch call (1 = per-update Apply)")
		buffering  = flag.String("buffering", "leaf", "buffering: leaf, tree, none")
		factor     = flag.Float64("f", 0.5, "gutter size factor")
		disk       = flag.String("disk", "", "directory for on-disk sketches (empty = RAM)")
		cacheB     = flag.Int64("cachebytes", 0, "disk-mode write-back cache budget in bytes (0 = 32 MiB default)")
		npg        = flag.Int("nodespergroup", 0, "disk-mode node-group slot size in sketches (0 = sized to the device block)")
		queries    = flag.Int("queries", 1, "evenly spaced connectivity queries (graph, single producer)")
		pointQ     = flag.Int("pointqueries", 0, "random point-query pairs served after ingestion via ConnectedMany (graph)")
		k          = flag.Int("k", 2, "layers for -structure kforests")
		maxWeight  = flag.Int("maxweight", 4, "max edge weight for -structure msf")
		ckptPath   = flag.String("checkpoint", "", "write a checkpoint of the final sketch state to this file")
		restore    = flag.String("restore", "", "restore the graph before ingesting (graph only): one checkpoint file, or a comma-separated chain \"base.gze,delta1.gzd,...\" applied in order")
		walDir     = flag.String("wal", "", "write-ahead log directory: log every accepted batch before it enters the pipeline (graph only)")
		mergeList  = flag.String("merge", "", "comma-separated checkpoint files merged in after ingestion, before the query")
		noDelta    = flag.Bool("nodeltaquery", false, "disable incremental query maintenance (every cache miss runs a from-scratch Boruvka)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *path == "" {
		log.Fatal("-stream is required")
	}
	if *producers < 1 || *batch < 1 {
		log.Fatal("-producers and -batch must be at least 1")
	}
	if *restore != "" && *structure != "graph" {
		log.Fatal("-restore is only supported with -structure graph")
	}
	if *walDir != "" && *structure != "graph" {
		log.Fatal("-wal is only supported with -structure graph")
	}

	// Profiles flush on normal completion; a log.Fatal error path exits
	// without them, which is fine — a partial profile of a failed run is
	// not worth complicating every error site for.
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	f, err := os.Open(*path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := stream.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	hdr := r.Header()
	fmt.Printf("stream: %d nodes, %d updates\n", hdr.NumNodes, hdr.Count)

	opts := []graphzeppelin.Option{
		graphzeppelin.WithSeed(ecfg.Seed),
		graphzeppelin.WithShards(ecfg.Shards),
		graphzeppelin.WithBufferFactor(*factor),
		graphzeppelin.WithDeltaCheckpointThreshold(ecfg.DeltaCheckpointThreshold),
	}
	if *noDelta {
		opts = append(opts, graphzeppelin.WithDeltaQueries(false))
	}
	switch *buffering {
	case "leaf":
	case "tree":
		opts = append(opts, graphzeppelin.WithBuffering(graphzeppelin.GutterTree))
	case "none":
		opts = append(opts, graphzeppelin.WithBuffering(graphzeppelin.Unbuffered))
	default:
		log.Fatalf("unknown buffering %q", *buffering)
	}
	if *disk != "" {
		opts = append(opts, graphzeppelin.WithSketchesOnDisk(*disk), graphzeppelin.WithDir(*disk))
	}
	if *cacheB != 0 {
		opts = append(opts, graphzeppelin.WithCacheBytes(*cacheB))
	}
	if *npg > 0 {
		opts = append(opts, graphzeppelin.WithNodesPerGroup(*npg))
	}
	if *walDir != "" {
		opts = append(opts, graphzeppelin.WithWAL(*walDir),
			graphzeppelin.WithFsyncPolicy(ecfg.WALFsync),
			graphzeppelin.WithFsyncInterval(ecfg.WALFsyncInterval),
			graphzeppelin.WithWALSegmentBytes(ecfg.WALSegmentBytes))
	}

	// Build the selected structure; all of them ingest through the one
	// StreamSketch code path below. report runs the structure's query.
	var (
		sk     graphzeppelin.StreamSketch
		graph  *graphzeppelin.Graph // non-nil iff -structure graph
		report func(sk graphzeppelin.StreamSketch) error
	)
	switch *structure {
	case "graph":
		var g *graphzeppelin.Graph
		var err error
		if *restore != "" {
			start := time.Now()
			chain := strings.Split(*restore, ",")
			g, err = graphzeppelin.OpenCheckpoint(chain[0], opts...)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range chain[1:] {
				f, err := os.Open(p)
				if err != nil {
					log.Fatal(err)
				}
				err = g.ApplyDeltaCheckpoint(f)
				f.Close()
				if err != nil {
					log.Fatalf("applying delta %s: %v", p, err)
				}
			}
			if g.NumNodes() != hdr.NumNodes {
				log.Fatalf("checkpoint %s is over %d nodes, stream over %d", chain[0], g.NumNodes(), hdr.NumNodes)
			}
			if len(chain) > 1 {
				fmt.Printf("restored %s + %d deltas (%d nodes) in %.3fs\n", chain[0], len(chain)-1, g.NumNodes(), time.Since(start).Seconds())
			} else {
				fmt.Printf("restored %s (%d nodes) in %.3fs\n", chain[0], g.NumNodes(), time.Since(start).Seconds())
			}
		} else {
			g, err = graphzeppelin.New(hdr.NumNodes, opts...)
			if err != nil {
				log.Fatal(err)
			}
		}
		graph = g
		sk = g
		report = func(graphzeppelin.StreamSketch) error {
			_, count, err := g.ConnectedComponents()
			if err != nil {
				return err
			}
			fmt.Printf("final query: %d components", count)
			return nil
		}
	case "bipartite":
		t, err := graphzeppelin.NewBipartiteTester(hdr.NumNodes, opts...)
		if err != nil {
			log.Fatal(err)
		}
		sk = t
		report = func(graphzeppelin.StreamSketch) error {
			bip, err := t.IsBipartite()
			if err != nil {
				return err
			}
			fmt.Printf("final query: bipartite = %v", bip)
			return nil
		}
	case "kforests":
		p, err := graphzeppelin.NewForestPeeler(*k, hdr.NumNodes, opts...)
		if err != nil {
			log.Fatal(err)
		}
		sk = p
		report = func(graphzeppelin.StreamSketch) error {
			lambda, err := p.EdgeConnectivity()
			if err != nil {
				return err
			}
			fmt.Printf("final query: edge connectivity min(k=%d, λ) = %d", *k, lambda)
			return nil
		}
	case "msf":
		m, err := graphzeppelin.NewMSFWeightSketch(*maxWeight, hdr.NumNodes, opts...)
		if err != nil {
			log.Fatal(err)
		}
		sk = m
		report = func(graphzeppelin.StreamSketch) error {
			w, err := m.Weight()
			if err != nil {
				return err
			}
			fmt.Printf("final query: MSF weight = %d (unit weights)", w)
			return nil
		}
	default:
		log.Fatalf("unknown structure %q", *structure)
	}
	defer sk.Close()

	start := time.Now()
	var ingested uint64
	if *producers == 1 {
		ingested, err = ingestSerial(r, sk, graph, hdr.Count, *batch, *queries)
	} else {
		ingested, err = ingestParallel(r, sk, graph, *producers, *batch)
	}
	if err != nil {
		log.Fatal(err)
	}
	ingestDur := time.Since(start)

	// Shard checkpoints written elsewhere merge in before the query: the
	// structure then answers for the union of every merged stream.
	if *mergeList != "" {
		for _, path := range strings.Split(*mergeList, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			if err := mergeCheckpointFile(sk, path); err != nil {
				log.Fatal(err)
			}
		}
	}

	qs := time.Now()
	if err := report(sk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf(" in %.3fs\n", time.Since(qs).Seconds())

	if *pointQ > 0 && graph != nil {
		if err := servePointQueries(graph, *pointQ, ecfg.Seed, hdr.NumNodes); err != nil {
			log.Fatal(err)
		}
	}

	if *ckptPath != "" {
		cs := time.Now()
		size, err := writeCheckpointFile(sk, *ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		stall := time.Duration(sk.Stats().CheckpointStallNanos)
		fmt.Printf("checkpoint: %.1f MiB to %s in %.3fs (ingest stalled %.3fms)\n",
			float64(size)/(1<<20), *ckptPath, time.Since(cs).Seconds(),
			float64(stall.Microseconds())/1000)
	}

	st := sk.Stats()
	fmt.Printf("ingested %d updates in %.3fs (%.2f M updates/s) with %d producer(s)\n",
		ingested, ingestDur.Seconds(), float64(ingested)/ingestDur.Seconds()/1e6, *producers)
	fmt.Printf("memory %.1f MiB, disk %.1f MiB, %d batches across %d shards %v\n",
		float64(st.MemoryBytes)/(1<<20), float64(st.DiskBytes)/(1<<20), st.Batches, st.Shards, st.ShardBatches)
	if st.SketchIO.TotalBlocks() > 0 {
		fmt.Printf("sketch I/O: %d read blocks, %d write blocks\n",
			st.SketchIO.ReadBlocks, st.SketchIO.WriteBlocks)
	}
	if c := st.SketchCache; c.Hits+c.Misses > 0 {
		fmt.Printf("sketch cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d write-backs, %d groups (%.1f MiB) resident\n",
			c.Hits, c.Misses, 100*float64(c.Hits)/float64(c.Hits+c.Misses),
			c.Evictions, c.WriteBacks, c.CachedGroups, float64(c.CachedBytes)/(1<<20))
	}
	if st.DeltaQueries+st.DeltaFallbacks > 0 {
		fmt.Printf("delta queries: %d incremental, %d fallbacks to full, %d nodes dirty at exit\n",
			st.DeltaQueries, st.DeltaFallbacks, st.DirtyNodes)
	}
	if st.BufferIO.TotalBlocks() > 0 {
		fmt.Printf("gutter I/O: %d read blocks, %d write blocks\n",
			st.BufferIO.ReadBlocks, st.BufferIO.WriteBlocks)
	}
	if wst := st.WAL; wst.Appends > 0 {
		fmt.Printf("wal: %d appends (%.1f MiB) in %d group commits, %d fsyncs, %d segments (tail LSN %d, durable %d)\n",
			wst.Appends, float64(wst.Bytes)/(1<<20), wst.GroupCommits, wst.Fsyncs,
			wst.Segments, wst.TailLSN, wst.DurableLSN)
	}
}

// mergeCheckpointFile XORs one checkpoint file into the structure and
// reports the merge rate.
func mergeCheckpointFile(sk graphzeppelin.StreamSketch, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sk.MergeCheckpoint(f); err != nil {
		return fmt.Errorf("merging %s: %w", path, err)
	}
	dur := time.Since(start)
	fmt.Printf("merged %s: %.1f MiB in %.3fs (%.1f MiB/s)\n",
		path, float64(st.Size())/(1<<20), dur.Seconds(),
		float64(st.Size())/(1<<20)/dur.Seconds())
	return nil
}

// writeCheckpointFile streams the structure's checkpoint to path and
// returns the byte size written.
func writeCheckpointFile(sk graphzeppelin.StreamSketch, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := sk.WriteCheckpoint(f); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// servePointQueries replays the post-ingestion serving workload: count
// random pairs answered first as one ConnectedMany batch, then via
// per-pair Connected calls. The graph is unchanged throughout, so after
// the first full query everything is served from the epoch cache —
// compare the two latencies against the final-query line above.
func servePointQueries(q graphzeppelin.PointQuerier, count int, seed uint64, numNodes uint32) error {
	pairs := stream.RandomPairs(numNodes, count, seed)
	start := time.Now()
	res, err := q.ConnectedMany(pairs)
	if err != nil {
		return err
	}
	batchDur := time.Since(start)
	connected := 0
	for _, ok := range res {
		if ok {
			connected++
		}
	}
	start = time.Now()
	for _, p := range pairs {
		if _, err := q.Connected(p.U, p.V); err != nil {
			return err
		}
	}
	singleDur := time.Since(start)
	fmt.Printf("point queries: %d pairs (%d connected); ConnectedMany %.3fms total, Connected %dns/query\n",
		count, connected, float64(batchDur.Microseconds())/1000,
		singleDur.Nanoseconds()/int64(count))
	return nil
}

// ingestSerial drives the whole stream from this goroutine in ApplyBatch
// chunks, optionally running evenly spaced connectivity queries (graph
// only). It returns the number of updates actually read, which for a
// truncated file can be below the header's count.
func ingestSerial(r *stream.Reader, sk graphzeppelin.StreamSketch, graph *graphzeppelin.Graph, count uint64, batch, queries int) (uint64, error) {
	every := uint64(0)
	if queries > 1 && graph != nil {
		every = count / uint64(queries) // 0 when queries > count: no interleaving
	}
	buf := make([]graphzeppelin.Update, 0, batch)
	var ingested uint64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := sk.ApplyBatch(buf); err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}
	for {
		u, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return ingested, err
		}
		buf = append(buf, u)
		if len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return ingested, err
			}
		}
		ingested++
		if every > 0 && ingested%every == 0 && ingested < count {
			if err := flush(); err != nil {
				return ingested, err
			}
			qs := time.Now()
			_, comps, err := graph.ConnectedComponents()
			if err != nil {
				return ingested, err
			}
			fmt.Printf("  query @ %3.0f%%: %d components (%.3fs)\n",
				100*float64(ingested)/float64(count), comps, time.Since(qs).Seconds())
		}
	}
	return ingested, flush()
}

// ingestParallel fans chunks of the stream out to producer goroutines.
// On a graph each producer ingests through its own Ingestor session; the
// extensions take ApplyBatch directly (each is one internally
// synchronized engine). It returns the number of updates handed to producers.
func ingestParallel(r *stream.Reader, sk graphzeppelin.StreamSketch, graph *graphzeppelin.Graph, producers, batch int) (uint64, error) {
	chunks := make(chan []graphzeppelin.Update, 2*producers)
	errc := make(chan error, producers+1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			apply := sk.ApplyBatch
			if graph != nil {
				ing, err := graph.NewIngestor()
				if err != nil {
					errc <- err
					return
				}
				defer ing.Close()
				apply = ing.ApplyBatch
			}
			failed := false
			for chunk := range chunks {
				if failed {
					continue // keep draining so the feeder never blocks
				}
				if err := apply(chunk); err != nil {
					errc <- err
					failed = true
				}
			}
		}()
	}
	buf := make([]graphzeppelin.Update, 0, batch)
	var ingested uint64
	for {
		u, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			errc <- err
			break
		}
		buf = append(buf, u)
		ingested++
		if len(buf) == cap(buf) {
			chunks <- buf
			buf = make([]graphzeppelin.Update, 0, batch)
		}
	}
	if len(buf) > 0 {
		chunks <- buf
	}
	close(chunks)
	wg.Wait()
	select {
	case err := <-errc:
		return ingested, err
	default:
		return ingested, nil
	}
}
