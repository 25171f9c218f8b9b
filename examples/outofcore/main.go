// Command outofcore demonstrates the hybrid streaming mode of Section 4:
// node sketches live in block-sized group slots on disk, updates are
// buffered through a disk-backed gutter tree whose leaf ranges align to
// the same node groups, and batches apply to decoded groups in a sharded
// write-back cache (WithCacheBytes / WithNodesPerGroup) — so the device
// sees one group fill per residency plus coalesced dirty write-backs,
// not one slot round trip per batch. The run prints the block-I/O and
// cache statistics alongside the answer, making the I/O-efficiency
// claims of Lemmas 4 and 5 observable.
package main

import (
	"fmt"
	"log"
	"os"

	"graphzeppelin"
	"graphzeppelin/internal/kron"
)

func main() {
	dir, err := os.MkdirTemp("", "gz-outofcore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const scale = 9 // 512 nodes, dense Kronecker: ~65k edges
	edges := kron.DenseKronecker(scale, 1)
	res := kron.ToStream(edges, 1<<scale, kron.StreamOptions{}, 2)
	fmt.Printf("dense kron%d stream: %d nodes, %d final edges, %d updates\n",
		scale, res.NumNodes, len(res.FinalEdges), len(res.Updates))

	g, err := graphzeppelin.New(res.NumNodes,
		graphzeppelin.WithSeed(11),
		graphzeppelin.WithSketchesOnDisk(dir),
		graphzeppelin.WithBuffering(graphzeppelin.GutterTree),
		graphzeppelin.WithDir(dir),
		graphzeppelin.WithShards(2),
		// The tiered-store knobs: an 8 MiB write-back cache of decoded
		// node groups, 16 node sketches per group slot. Both default
		// sensibly (32 MiB, block-sized groups); they are pinned here so
		// the printed cache statistics are easy to reason about.
		graphzeppelin.WithCacheBytes(8<<20),
		graphzeppelin.WithNodesPerGroup(16),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	for _, u := range res.Updates {
		if err := g.Apply(u); err != nil {
			log.Fatal(err)
		}
	}
	_, count, err := g.ConnectedComponents()
	if err != nil {
		log.Fatal(err)
	}
	st := g.Stats()
	fmt.Printf("components: %d (stream disconnected %d nodes)\n", count, len(res.Disconnected))
	fmt.Printf("sketch store on disk: %.1f MiB, RAM held by engine: %.1f MiB\n",
		float64(st.DiskBytes)/(1<<20), float64(st.MemoryBytes)/(1<<20))
	fmt.Printf("sketch-store I/O: %d block reads, %d block writes (%d batches for %d updates → %.0f updates amortized per sketch fetch)\n",
		st.SketchIO.ReadBlocks, st.SketchIO.WriteBlocks, st.Batches, st.Updates,
		float64(2*st.Updates)/float64(max(st.Batches, 1)))
	fmt.Printf("gutter-tree I/O:  %d block reads, %d block writes\n",
		st.BufferIO.ReadBlocks, st.BufferIO.WriteBlocks)
	c := st.SketchCache
	if c.Hits+c.Misses > 0 {
		fmt.Printf("write-back cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d write-backs, %.1f MiB resident\n",
			c.Hits, c.Misses, 100*float64(c.Hits)/float64(c.Hits+c.Misses),
			c.Evictions, c.WriteBacks, float64(c.CachedBytes)/(1<<20))
	}
}
