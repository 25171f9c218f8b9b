package gutter

import (
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
