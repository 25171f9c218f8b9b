// Command socialnetwork tracks communities in a churning friendship graph,
// the dynamic-graph use case the paper's introduction motivates: users add
// and remove friends over time, and the analytics job reports how the
// community structure evolves — without ever storing the graph itself.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"graphzeppelin"
)

const (
	numUsers     = 2000
	numEpochs    = 5
	epochUpdates = 20000
)

func main() {
	g, err := graphzeppelin.New(numUsers,
		graphzeppelin.WithSeed(2022),
		graphzeppelin.WithShards(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	rng := rand.New(rand.NewPCG(7, 7))
	type edge struct{ u, v uint32 }
	present := make(map[edge]bool)

	// Users cluster into 20 interest groups; most friendships are
	// intra-group, a few bridge groups, and friendships churn.
	group := func(u uint32) uint32 { return u / (numUsers / 20) }
	sample := func() (uint32, uint32) {
		u := uint32(rng.Uint64N(numUsers))
		var v uint32
		if rng.Float64() < 0.95 { // intra-group friendship
			base := group(u) * (numUsers / 20)
			v = base + uint32(rng.Uint64N(numUsers/20))
		} else { // cross-group bridge
			v = uint32(rng.Uint64N(numUsers))
		}
		return u, v
	}

	for epoch := 1; epoch <= numEpochs; epoch++ {
		for i := 0; i < epochUpdates; i++ {
			u, v := sample()
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := edge{u, v}
			if present[e] {
				// A falling-out: the friendship is removed.
				if err := g.Delete(u, v); err != nil {
					log.Fatal(err)
				}
				delete(present, e)
			} else {
				if err := g.Insert(u, v); err != nil {
					log.Fatal(err)
				}
				present[e] = true
			}
		}
		_, count, err := g.ConnectedComponents()
		if err != nil {
			log.Fatal(err)
		}
		st := g.Stats()
		fmt.Printf("epoch %d: %7d live friendships, %4d communities, %9d updates ingested\n",
			epoch, len(present), count, st.Updates)
	}

	st := g.Stats()
	fmt.Printf("\nsketch memory: %.1f MiB for a graph universe of %d users\n",
		float64(st.MemoryBytes)/(1<<20), numUsers)
}
