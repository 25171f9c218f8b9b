package experiments

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"graphzeppelin"
	"graphzeppelin/internal/stream"
)

// ScalingSweep measures multi-core ingest scaling across the three layers
// this pipeline optimizes: concurrent producers feeding striped gutters,
// per-shard SPSC queues with padded, cache-friendly indices, and
// shard-owning Graph Workers running the batched bucket-XOR kernel. Two
// workloads are swept:
//
//   - uniform: a Kronecker stream whose node-keyed batches spread evenly
//     over the node % shards partition, with producers = shards = w. This
//     is the headline producers × shards scaling curve; wall-clock
//     speedup requires a multi-core host (on one vCPU the curve is flat
//     and only measures hand-off overhead — read it next to the recorded
//     GOMAXPROCS/NumCPU metadata).
//
//   - skewed: a stream in which every edge touches one of 16 hot nodes,
//     all owned by shard 0 under the static partition, at 4 producers ×
//     4 shards. The batch-skew column (max/mean of per-worker applied
//     batches) is the hardware-independent signal: group ownership is
//     static, so the hot nodes' batches all go to shard 0 (skew → shards).
func ScalingSweep(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	n := len(res.Updates)
	t := &Table{
		ID:    "scaling",
		Title: fmt.Sprintf("Multi-core ingest scaling (kron%d uniform + skewed stream)", scale),
		Header: []string{
			"stream", "producers", "shards", "rate", "speedup", "batch skew",
		},
		Notes: []string{
			"speedup: uniform rows vs the 1×1 row; the skewed row runs another stream and has none",
			"batch skew = max/mean of per-worker applied batches (1.00 = perfectly balanced)",
			"wall-clock speedup needs a multi-core host; batch skew is hardware-independent",
		},
	}

	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		st, dur, err := runScaling(res.Updates, res.NumNodes, w, w, o.Seed)
		if err != nil {
			return nil, err
		}
		if w == 1 {
			base = dur
		}
		t.Rows = append(t.Rows, []string{
			"uniform", fmt.Sprintf("%d", w), fmt.Sprintf("%d", w),
			rate(n, dur),
			fmt.Sprintf("%.2fx", base.Seconds()/dur.Seconds()),
			fmt.Sprintf("%.2f", batchSkew(st.ShardBatches)),
		})
		o.logf("scaling: uniform workers=%d done", w)
	}

	// The skewed phase needs enough updates that hot gutters refill and
	// flush many times over — with too short a stream every batch comes
	// from the final flush (one per node) and the skew washes out.
	const skewShards = 4
	skewCount := 4 * n
	if skewCount < 400_000 {
		skewCount = 400_000
	}
	skewed := skewedStream(res.NumNodes, skewShards, skewCount, o.Seed)
	st, dur, err := runScaling(skewed, res.NumNodes, skewShards, skewShards, o.Seed)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"skewed", fmt.Sprintf("%d", skewShards), fmt.Sprintf("%d", skewShards),
		rate(len(skewed), dur),
		"-",
		fmt.Sprintf("%.2f", batchSkew(st.ShardBatches)),
	})
	o.logf("scaling: skewed done")
	return t, nil
}

// skewedStream builds an insert stream in which every edge has one
// endpoint among 16 hot nodes — all congruent to 0 modulo shards, so
// under the static node % shards partition their batches land on shard 0
// — and the other endpoint is hot half the time too (updates buffer under
// both endpoints, so hot-hot edges double down on the overloaded shard:
// ~81% of all batches are shard 0's).
func skewedStream(numNodes uint32, shards, count int, seed uint64) []graphzeppelin.Update {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	hot := make([]uint32, 0, 16)
	for n := uint32(0); len(hot) < 16 && n < numNodes; n += uint32(shards) {
		hot = append(hot, n)
	}
	ups := make([]graphzeppelin.Update, 0, count)
	for len(ups) < count {
		u := hot[rng.IntN(len(hot))]
		var v uint32
		if rng.IntN(2) == 0 {
			v = hot[rng.IntN(len(hot))]
		} else {
			v = rng.Uint32N(numNodes)
		}
		if u == v {
			continue
		}
		ups = append(ups, graphzeppelin.Update{
			Edge: stream.Edge{U: u, V: v},
			Type: stream.Insert,
		})
	}
	return ups
}

// runScaling ingests ups with p concurrent producer sessions into a
// graph with the given shard count, returning the final stats and
// wall-clock ingest time (including the final flush).
func runScaling(ups []graphzeppelin.Update, numNodes uint32, p, shards int, seed uint64) (graphzeppelin.Stats, time.Duration, error) {
	g, err := graphzeppelin.New(numNodes,
		graphzeppelin.WithSeed(seed),
		graphzeppelin.WithShards(shards),
	)
	if err != nil {
		return graphzeppelin.Stats{}, 0, err
	}
	defer g.Close()

	parts := make([][]graphzeppelin.Update, p)
	for i, u := range ups {
		parts[i%p] = append(parts[i%p], u)
	}
	errs := make([]error, p)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ing, err := g.NewIngestor()
			if err != nil {
				errs[i] = err
				return
			}
			for _, u := range parts[i] {
				if err := ing.Apply(u); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = ing.Close()
		}(i)
	}
	wg.Wait()
	if err := g.Flush(); err != nil {
		return graphzeppelin.Stats{}, 0, err
	}
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return graphzeppelin.Stats{}, 0, err
		}
	}
	return g.Stats(), dur, nil
}
