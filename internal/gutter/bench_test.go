package gutter

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

func BenchmarkLeafGuttersInsert(b *testing.B) {
	g := NewLeafGutters(1024, 512, 1, 1, func(Batch) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InsertEdges([]stream.Edge{{U: uint32(i) & 1023, V: uint32(i*7) & 1023}})
	}
}

func BenchmarkLeafGuttersInsertEdges(b *testing.B) {
	g := NewLeafGutters(1024, 512, 8, 1, func(Batch) {})
	edges := make([]stream.Edge, 512)
	for i := range edges {
		u := uint32(i) & 1023
		v := uint32(i*7+1) & 1023
		if u == v {
			v = (v + 1) & 1023
		}
		edges[i] = stream.Edge{U: u, V: v}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.InsertEdges(edges); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(edges)), "edges/op")
}

// BenchmarkLeafGuttersParallel has two producers insert batches of 4,096
// random edges over 2,048 nodes at once, one lock stripe each, into
// gutters of 3,264 updates (a scale-11 sketch's leaf at the default buffer
// factor), the sink recycling every emitted batch as a worker would. One
// op is one batch; ns/edge is the wall time per edge of both producers
// together. Run it at -cpu 2, where the producers run in parallel and
// contend for what they share.
func BenchmarkLeafGuttersParallel(b *testing.B) {
	const nodes, capacity, batch, producers = 2048, 3264, 4096, 2
	var g *LeafGutters
	g = NewLeafGutters(nodes, capacity, producers, 1, func(bt Batch) { g.Recycle(bt.Others) })
	batches := make([][][]stream.Edge, producers)
	for p := range batches {
		rng := rand.New(rand.NewPCG(uint64(p), 0x6775))
		for range 4 {
			edges := make([]stream.Edge, batch)
			for i := range edges {
				u := uint32(rng.IntN(nodes))
				v := (u + 1 + uint32(rng.IntN(nodes-1))) % nodes
				edges[i] = stream.Edge{U: u, V: v}.Normalize()
			}
			batches[p] = append(batches[p], edges)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; next.Add(1) <= int64(b.N); i++ {
				if err := g.InsertEdges(batches[p][i%len(batches[p])]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/edge")
}

func BenchmarkTreeInsert(b *testing.B) {
	tree, err := NewTree(1024, TreeConfig{Fanout: 8, BufferRecords: 4096, LeafRecords: 1024},
		iomodel.NewMem(16*1024), func(Batch) {})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.InsertEdges([]stream.Edge{{U: uint32(i) & 1023, V: uint32(i*7) & 1023}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tree.Stats()
	b.ReportMetric(float64(st.TotalBlocks())/float64(b.N), "blockIO/update")
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC(64)
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := q.Pop(); !ok {
				close(done)
				return
			}
		}
	}()
	batch := Batch{Node: 1, Others: []uint32{2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(batch)
	}
	b.StopTimer()
	q.Close()
	<-done
}
