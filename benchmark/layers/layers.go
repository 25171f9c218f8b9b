// Package layers holds the standalone layer replays: single-threaded
// loops that feed one layer's public function the same kind of input the
// workload hands it, so a unit cost can be set against the end-to-end
// number. A replay has no queue in front of it and nothing competing for
// the core; what it reports is pure cost, not waiting.
package layers

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graphzeppelin"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/diskstore"
	"graphzeppelin/internal/gutter"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/hashing"
	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
	"graphzeppelin/internal/wal"
)

// Geometry is what a replay needs to know about the workload it mirrors.
type Geometry struct {
	NumNodes uint32
	Seed     uint64
	// GutterCap is the leaf gutter capacity in updates: the size of a
	// fill-emitted batch.
	GutterCap int
	// Budget bounds each replay's measuring time.
	Budget time.Duration
}

func (g Geometry) vecLen() uint64 { return stream.VectorLen(uint64(g.NumNodes)) }

func (g Geometry) roundSeeds() []uint64 {
	seeds := make([]uint64, core.DefaultRounds(g.NumNodes))
	for r := range seeds {
		seeds[r] = hashing.Mix64(g.Seed, uint64(r))
	}
	return seeds
}

// perUnit times fn, which does units units of work per call, in rounds
// until budget is spent (at least five rounds) and returns the median
// nanoseconds per unit.
func perUnit(budget time.Duration, units int, fn func()) float64 {
	fn() // warm caches and lazy allocation
	var samples []float64
	for start := time.Now(); len(samples) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

func randomUpdates(numNodes uint32, count int, rng *rand.Rand) []stream.Update {
	ups := make([]stream.Update, count)
	for i := range ups {
		u := rng.Uint32N(numNodes)
		v := rng.Uint32N(numNodes - 1)
		if v >= u {
			v++
		}
		ups[i] = stream.Update{Edge: stream.Edge{U: u, V: v}.Normalize(), Type: stream.Insert}
	}
	return ups
}

// Mix64 replays hashing.Mix64, the hash under every bucket decision.
func Mix64(g Geometry) float64 {
	const n = 1 << 16
	return perUnit(g.Budget, n, func() {
		var acc uint64
		for i := uint64(0); i < n; i++ {
			acc ^= hashing.Mix64(g.Seed, i)
		}
		runtime.KeepAlive(acc) // or the compiler may drop the loop
	})
}

// SlabApply replays cubesketch.Slab.Apply on gutter-sized batches of
// characteristic-vector indices, rotating over enough node sketches to
// stay out of the L2 cache. It returns nanoseconds per index.
func SlabApply(g Geometry) float64 {
	const nodes = 256
	rng := rand.New(rand.NewPCG(g.Seed, 1))
	slab := cubesketch.NewSlab(nodes, g.vecLen(), cubesketch.DefaultColumns, g.roundSeeds())
	batch := make([]uint64, g.GutterCap)
	for i := range batch {
		batch[i] = rng.Uint64N(g.vecLen())
	}
	node := 0
	return perUnit(g.Budget, len(batch), func() {
		slab.Apply(node, batch)
		node = (node + 1) % nodes
	})
}

// SketchQuery replays cubesketch.Sketch.Query on a sketch holding a few
// indices and returns nanoseconds per query.
func SketchQuery(g Geometry) float64 {
	s := cubesketch.New(g.vecLen(), cubesketch.DefaultColumns, g.Seed)
	for i := uint64(1); i <= 5; i++ {
		s.Update(i * 7 % g.vecLen())
	}
	const n = 256
	return perUnit(g.Budget, n, func() {
		var acc uint64
		for i := 0; i < n; i++ {
			idx, _ := s.Query()
			acc += idx
		}
		runtime.KeepAlive(acc)
	})
}

// MergeSerialized replays cubesketch.MergeSerialized, the XOR that folds
// one serialized sketch into another, and returns nanoseconds per sketch.
func MergeSerialized(g Geometry) (float64, error) {
	a := cubesketch.New(g.vecLen(), cubesketch.DefaultColumns, g.Seed)
	b := cubesketch.New(g.vecLen(), cubesketch.DefaultColumns, g.Seed)
	a.Update(1)
	b.Update(2)
	dst, err := a.MarshalBinary()
	if err != nil {
		return 0, err
	}
	src, err := b.MarshalBinary()
	if err != nil {
		return 0, err
	}
	const n = 256
	var merr error
	ns := perUnit(g.Budget, n, func() {
		for i := 0; i < n; i++ {
			if err := cubesketch.MergeSerialized(dst, src); err != nil {
				merr = err
			}
		}
	})
	return ns, merr
}

// Gutter replays the buffering layer into a sink that does nothing but
// hand the buffer back: LeafGutters.InsertEdges (nanoseconds per update,
// fill-emitted batches included), LeafGutters.Flush of half-full gutters
// (nanoseconds per emitted batch) and an SPSC Push+Pop pair (nanoseconds
// per batch).
func Gutter(g Geometry, batchLen int) (insertNs, flushNs, spscNs float64, err error) {
	rng := rand.New(rand.NewPCG(g.Seed, 2))
	var emitted int
	var leaf *gutter.LeafGutters
	leaf = gutter.NewLeafGutters(g.NumNodes, g.GutterCap, 1, 1, func(b gutter.Batch) {
		emitted++
		leaf.Recycle(b.Others)
	})
	edges := make([]stream.Edge, batchLen)
	for i, u := range randomUpdates(g.NumNodes, batchLen, rng) {
		edges[i] = u.Edge
	}
	insertNs = perUnit(g.Budget, batchLen, func() {
		if ierr := leaf.InsertEdges(edges); ierr != nil {
			err = ierr
		}
	})

	// Flush: refill every gutter to about half, untimed, then time the
	// flush alone.
	var samples []float64
	half := int(g.NumNodes) * g.GutterCap / 4 // edges; each lands in two gutters
	for start := time.Now(); len(samples) < 3 || time.Since(start) < g.Budget; {
		if ferr := leaf.Flush(); ferr != nil {
			return 0, 0, 0, ferr
		}
		for done := 0; done < half; done += batchLen {
			if ierr := leaf.InsertEdges(edges); ierr != nil {
				return 0, 0, 0, ierr
			}
		}
		emitted = 0
		t0 := time.Now()
		if ferr := leaf.Flush(); ferr != nil {
			return 0, 0, 0, ferr
		}
		if emitted > 0 {
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(emitted))
		}
	}
	sort.Float64s(samples)
	flushNs = samples[len(samples)/2]

	q := gutter.NewSPSC(8)
	b := gutter.Batch{Node: 1, Others: make([]uint32, g.GutterCap)}
	const n = 1024
	spscNs = perUnit(g.Budget, n, func() {
		for i := 0; i < n; i++ {
			q.Push(b)
			q.Pop()
		}
	})
	return insertNs, flushNs, spscNs, err
}

// WAL replays wal.Log.Append at the workload's batch size and fsync
// policy on real files under dir, then wal.Log.Replay over what was
// appended. Both results are nanoseconds per update.
func WAL(g Geometry, dir string, policy wal.FsyncPolicy, batchLen int) (appendNs, replayNs float64, err error) {
	st, err := wal.NewDirStorage(dir, iomodel.DefaultBlockSize)
	if err != nil {
		return 0, 0, err
	}
	log, err := wal.Open(wal.Options{Storage: st, Policy: policy})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	ups := randomUpdates(g.NumNodes, batchLen, rand.New(rand.NewPCG(g.Seed, 3)))
	appended := 0
	appendNs = perUnit(g.Budget, batchLen, func() {
		if _, aerr := log.Append(0, ups); aerr != nil {
			err = aerr
		}
		appended += batchLen
	})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	replayed := 0
	err = log.Replay(0, func(r wal.Record) error {
		replayed += len(r.Updates)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if replayed != appended {
		return 0, 0, fmt.Errorf("layers: wal replayed %d of %d updates", replayed, appended)
	}
	return appendNs, float64(time.Since(t0).Nanoseconds()) / float64(replayed), nil
}

// CacheApply replays diskstore.Cache.Apply with gutter-sized batches on a
// file-backed store under dir: once against a group that stays resident
// (a hit) and once cycling through more groups than the cache holds, so
// every call fills from the device and writes a dirty group back (a
// miss). Both results are nanoseconds per Apply call.
func CacheApply(g Geometry, dir string) (hitNs, missNs float64, err error) {
	const groups, cached = 64, 8
	seeds := g.roundSeeds()
	newSlab := func() *cubesketch.Slab {
		return cubesketch.NewSlab(1, g.vecLen(), cubesketch.DefaultColumns, seeds)
	}
	empty := newSlab()
	slot := make([]byte, empty.NodeSize())
	empty.MarshalNode(0, slot)
	dev, err := iomodel.OpenFile(filepath.Join(dir, "cache-replay.gz0"), iomodel.DefaultBlockSize)
	if err != nil {
		return 0, 0, err
	}
	defer dev.Close()
	store, err := diskstore.New(dev, groups, len(slot), 1)
	if err != nil {
		return 0, 0, err
	}
	for n := uint32(0); n < groups; n++ {
		if err := store.Write(n, slot); err != nil {
			return 0, 0, err
		}
	}
	cache := diskstore.NewCache(store, diskstore.CacheConfig{
		Bytes:   int64(cached * empty.Bytes()),
		Shards:  1,
		NewSlab: newSlab,
	})
	rng := rand.New(rand.NewPCG(g.Seed, 4))
	batch := make([]uint64, g.GutterCap)
	for i := range batch {
		batch[i] = rng.Uint64N(g.vecLen())
	}
	hitNs = perUnit(g.Budget, 1, func() {
		if aerr := cache.Apply(0, batch); aerr != nil {
			err = aerr
		}
	})
	before := cache.Stats()
	node := uint32(1) // group 0 is still resident from the hit phase
	missNs = perUnit(g.Budget, 1, func() {
		if aerr := cache.Apply(node, batch); aerr != nil {
			err = aerr
		}
		node = (node + 1) % groups
	})
	after := cache.Stats()
	if hits := after.Hits - before.Hits; hits > 0 || before.Misses > 1 {
		return 0, 0, fmt.Errorf("layers: cache replay is not pure: %d hits in the miss phase, %d misses in the hit phase", hits, before.Misses)
	}
	return hitNs, missNs, err
}

// Codec replays the byte codecs on one batch: stream.DecodeUpdates and
// the gzserve ingest frame's EncodeIngest / DecodeIngest. All results
// are nanoseconds per update.
func Codec(g Geometry, batchLen int) (decodeNs, wireEncodeNs, wireDecodeNs float64, err error) {
	ups := randomUpdates(g.NumNodes, batchLen, rand.New(rand.NewPCG(g.Seed, 5)))
	raw := stream.AppendUpdates(nil, ups)
	decodeNs = perUnit(g.Budget, batchLen, func() {
		if _, derr := stream.DecodeUpdates(raw); derr != nil {
			err = derr
		}
	})
	var frame []byte
	wireEncodeNs = perUnit(g.Budget, batchLen, func() {
		frame = gzserve.EncodeIngest(1, ups)
	})
	wireDecodeNs = perUnit(g.Budget, batchLen, func() {
		if _, _, derr := gzserve.DecodeIngest(frame); derr != nil {
			err = derr
		}
	})
	return decodeNs, wireEncodeNs, wireDecodeNs, err
}

// SendRTT replays gzserve.Client.Send of one ingest frame to a worker
// over loopback HTTP and returns microseconds per acknowledged frame:
// encode, the HTTP hop, decode, the seq gate and the hand-off into the
// worker's gutters.
func SendRTT(g Geometry, batchLen int) (float64, error) {
	wk, err := gzserve.NewWorker(core.Config{NumNodes: g.NumNodes, Seed: g.Seed}, 0, g.NumNodes)
	if err != nil {
		return 0, err
	}
	defer wk.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: wk.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns once Shutdown closes the listener
	}()
	// A transport of our own, so its idle connections can be closed
	// before Shutdown: one dialled ahead and never used would hold it up
	// for five seconds.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		transport.CloseIdleConnections()
		srv.Shutdown(ctx)
		<-served
	}()
	cl := gzserve.NewClient("http://"+ln.Addr().String(), gzserve.ClientConfig{HTTPClient: &http.Client{Transport: transport}})
	ups := randomUpdates(g.NumNodes, batchLen, rand.New(rand.NewPCG(g.Seed, 6)))
	ctx := context.Background()
	ns := perUnit(g.Budget, 1, func() {
		if serr := cl.Send(ctx, ups); serr != nil {
			err = serr
		}
	})
	return ns / 1e3, err
}

// IngestorOverhead replays Ingestor.ApplyBatch and Graph.ApplyBatch
// alternately into one closed-loop graph that is never queried, and
// returns what the session layer adds in nanoseconds per update (never
// below zero).
func IngestorOverhead(g Geometry, batchLen int) (float64, error) {
	gr, err := graphzeppelin.New(g.NumNodes, graphzeppelin.WithSeed(g.Seed))
	if err != nil {
		return 0, err
	}
	defer gr.Close()
	ing, err := gr.NewIngestor()
	if err != nil {
		return 0, err
	}
	ups := randomUpdates(g.NumNodes, batchLen, rand.New(rand.NewPCG(g.Seed, 7)))
	var viaSession, direct []float64
	if err := gr.ApplyBatch(ups); err != nil {
		return 0, err
	}
	for start := time.Now(); len(direct) < 5 || time.Since(start) < g.Budget; {
		t0 := time.Now()
		if err := ing.ApplyBatch(ups); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := gr.ApplyBatch(ups); err != nil {
			return 0, err
		}
		viaSession = append(viaSession, float64(t1.Sub(t0).Nanoseconds())/float64(batchLen))
		direct = append(direct, float64(time.Since(t1).Nanoseconds())/float64(batchLen))
	}
	sort.Float64s(viaSession)
	sort.Float64s(direct)
	return max(0, viaSession[len(viaSession)/2]-direct[len(direct)/2]), nil
}
