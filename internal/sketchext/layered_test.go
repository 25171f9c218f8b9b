package sketchext

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/stream"
)

// placements returns the store placements every exact-model test runs
// under: RAM, and sketches on disk in groups of 4 nodes.
func placements(t *testing.T, seed uint64) map[string]core.Config {
	return map[string]core.Config{
		"ram":  {Seed: seed},
		"disk": {Seed: seed, SketchesOnDisk: true, Dir: t.TempDir(), NodesPerGroup: 4},
	}
}

// model is the exact reference: the current edge set with its weights.
type model map[stream.Edge]int

func (m model) edges() []stream.Edge {
	es := make([]stream.Edge, 0, len(m))
	for e := range m {
		es = append(es, e)
	}
	return es
}

// step draws one well-formed update: with probability pDel (or when no
// absent edge turns up) the deletion of a present edge, otherwise the
// insertion of an absent one drawn by pick. It applies the update to m
// and returns it with its weight.
func (m model) step(rng *rand.Rand, pDel float64, maxW int, pick func() stream.Edge) (stream.Update, int) {
	if len(m) == 0 || rng.Float64() >= pDel {
		for tries := 0; tries < 64; tries++ {
			e := pick().Normalize()
			if _, dup := m[e]; e.U != e.V && !dup {
				w := 1 + rng.IntN(maxW)
				m[e] = w
				return stream.Update{Edge: e, Type: stream.Insert}, w
			}
		}
	}
	es := m.edges()
	e := es[rng.IntN(len(es))]
	w := m[e]
	delete(m, e)
	return stream.Update{Edge: e, Type: stream.Delete}, w
}

// exactLambda is min(k, λ) over the non-isolated nodes of the edge set.
func exactLambda(k int, edges []stream.Edge) int {
	remap := map[uint32]uint32{}
	id := func(v uint32) uint32 {
		if _, ok := remap[v]; !ok {
			remap[v] = uint32(len(remap))
		}
		return remap[v]
	}
	compact := make([]stream.Edge, len(edges))
	for i, e := range edges {
		compact[i] = stream.Edge{U: id(e.U), V: id(e.V)}
	}
	return min(k, StoerWagner(uint32(len(remap)), compact))
}

func TestKForestsRandomDeletionsAgainstStoerWagner(t *testing.T) {
	const n, k = 12, 3
	for seed := uint64(0); seed < 8; seed++ {
		for name, cfg := range placements(t, 300+seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 31))
				kf, err := NewKForests(k, n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer kf.Close()
				m := model{}
				pick := func() stream.Edge {
					return stream.Edge{U: uint32(rng.IntN(n)), V: uint32(rng.IntN(n))}
				}
				pDel := 0.2 + 0.05*float64(seed) // denser early seeds, sparser late ones
				for i := 0; i < 120; i++ {
					u, _ := m.step(rng, pDel, 1, pick)
					if err := kf.Update(u); err != nil {
						t.Fatal(err)
					}
				}
				got, err := kf.EdgeConnectivity()
				if err != nil {
					t.Fatal(err)
				}
				if want := exactLambda(k, m.edges()); got != want {
					t.Fatalf("EdgeConnectivity = %d, exact min(k, λ) = %d over %d edges", got, want, len(m))
				}
			})
		}
	}
}

func TestMSFWeightRandomDeletionsAgainstKruskal(t *testing.T) {
	const n, maxW = 20, 5
	for seed := uint64(0); seed < 6; seed++ {
		for name, cfg := range placements(t, 400+seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 37))
				ms, err := NewMSFWeight(maxW, n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ms.Close()
				m := model{}
				pick := func() stream.Edge {
					return stream.Edge{U: uint32(rng.IntN(n)), V: uint32(rng.IntN(n))}
				}
				for i := 1; i <= 150; i++ {
					u, w := m.step(rng, 0.35, maxW, pick)
					if err := ms.WeightedUpdate(u, w); err != nil {
						t.Fatal(err)
					}
					if i%30 != 0 {
						continue
					}
					got, err := ms.Weight()
					if err != nil {
						t.Fatal(err)
					}
					if want := kruskalWeight(n, m.edges(), m); got != want {
						t.Fatalf("after %d updates: Weight = %d, Kruskal = %d", i, got, want)
					}
				}
			})
		}
	}
}

func TestBipartiteRandomDeletionsAgainstExact(t *testing.T) {
	const n = 24
	for seed := uint64(0); seed < 8; seed++ {
		for name, cfg := range placements(t, 500+seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 41))
				b, err := NewBipartite(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				m := model{}
				// Mostly edges across a planted even/odd bipartition, with
				// rare unconstrained ones that deletions later remove.
				pick := func() stream.Edge {
					u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
					if rng.IntN(12) != 0 {
						u, v = u&^1, v|1
					}
					return stream.Edge{U: u, V: v}
				}
				for i := 1; i <= 160; i++ {
					u, _ := m.step(rng, 0.4, 1, pick)
					if err := b.Update(u); err != nil {
						t.Fatal(err)
					}
					if i%20 != 0 {
						continue
					}
					got, err := b.IsBipartite()
					if err != nil {
						t.Fatal(err)
					}
					if want := isBipartiteExact(n, m.edges()); got != want {
						t.Fatalf("after %d updates: IsBipartite = %v, exact = %v", i, got, want)
					}
				}
			})
		}
	}
}

// TestLiftRefusesForeignLayerIDs feeds each structure a batch holding one
// id in [V, L·V) — a valid engine node, but another layer's copy. The
// whole batch must be refused with an error naming V, and nothing of it
// may be ingested.
func TestLiftRefusesForeignLayerIDs(t *testing.T) {
	const n = 16
	kf, err := NewKForests(2, n, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMSFWeight(3, n, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBipartite(n, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*Layered{"kforests": &kf.Layered, "msf": &ms.Layered, "bipartite": &b.Layered}
	for _, l := range structs {
		defer l.Close()
		for _, e := range []stream.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}} {
			insert(t, l, e.U, e.V)
		}
	}
	answers := func() (int64, bool) {
		w, err := ms.Weight()
		if err != nil {
			t.Fatal(err)
		}
		bip, err := b.IsBipartite()
		if err != nil {
			t.Fatal(err)
		}
		return w, bip
	}
	w0, bip0 := answers()
	for name, l := range structs {
		before := l.Stats().Updates
		bad := []stream.Update{
			{Edge: stream.Edge{U: 3, V: 4}, Type: stream.Insert},
			{Edge: stream.Edge{U: 5, V: n + 6}, Type: stream.Insert},
		}
		err := l.UpdateBatch(bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("for %d nodes", n)) {
			t.Fatalf("%s: foreign-layer batch error = %v, want a refusal naming %d nodes", name, err, n)
		}
		if after := l.Stats().Updates; after != before {
			t.Fatalf("%s: refused batch moved Updates %d -> %d", name, before, after)
		}
	}
	if err := ms.Insert(n, 1, 2); err == nil {
		t.Fatal("weighted update with a foreign-layer id accepted")
	}
	if w, bip := answers(); w != w0 || bip != bip0 {
		t.Fatalf("answers moved after refused batches: weight %d -> %d, bipartite %v -> %v", w0, w, bip0, bip)
	}
	if lambda, err := kf.EdgeConnectivity(); err != nil || lambda != 2 {
		t.Fatalf("triangle EdgeConnectivity = %d, %v; want 2", lambda, err)
	}
}

// sketchBytes is eng's checkpoint without its chain envelope: the header up
// to the meta CRC, and everything after the meta. Two engines holding the
// same sketches produce the same sketchBytes.
func sketchBytes(t *testing.T, eng *core.Engine) []byte {
	t.Helper()
	cs, err := eng.SealCheckpointSince(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var buf bytes.Buffer
	if err := cs.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	metaEnd := 4 + 48 + int(binary.LittleEndian.Uint32(b[4+40:]))
	return append(b[:4+44:4+44], b[metaEnd:]...)
}

// TestWALRecoversLayeredEngine drops each durable structure without
// Close and rebuilds its engine from the log alone, over the layered
// config (L·V nodes, the kind's seed). The log must hold exactly one
// record per ingest call, carrying every lifted edge, and the recovered
// engine must hold the live one's sketches bit for bit.
func TestWALRecoversLayeredEngine(t *testing.T) {
	const n = 64
	cases := []struct {
		name   string
		kind   uint64
		layers int
		build  func(cfg core.Config) (*Layered, func(u uint32) error)
		lifted uint64 // lifted edges of the ten inserts
	}{
		{"kforests", kindKForests, 2, func(cfg core.Config) (*Layered, func(uint32) error) {
			kf, err := NewKForests(2, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return &kf.Layered, func(u uint32) error { return kf.Update(stream.Update{Edge: stream.Edge{U: u, V: u + 1}}) }
		}, 20},
		{"msf", kindMSFWeight, 2, func(cfg core.Config) (*Layered, func(uint32) error) {
			ms, err := NewMSFWeight(2, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return &ms.Layered, func(u uint32) error { return ms.Insert(u, u+1, 1+int(u%2)) }
		}, 15},
		{"bipartite", kindBipartite, 3, func(cfg core.Config) (*Layered, func(uint32) error) {
			b, err := NewBipartite(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return &b.Layered, func(u uint32) error { return b.Update(stream.Update{Edge: stream.Edge{U: u, V: u + 1}}) }
		}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.Config{Seed: 9, WAL: true, WALDir: t.TempDir()}
			live, ins := c.build(cfg)
			defer live.Close()
			for u := uint32(0); u < 10; u++ {
				if err := ins(u); err != nil {
					t.Fatal(err)
				}
			}
			rcfg := cfg
			rcfg.NumNodes = uint32(c.layers) * n
			rcfg.Seed ^= c.kind
			rec, info, err := core.RecoverChain("", nil, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if info.Records != 10 || info.Updates != c.lifted {
				t.Fatalf("log replayed %d records / %d updates, want 10 / %d", info.Records, info.Updates, c.lifted)
			}
			if !bytes.Equal(sketchBytes(t, rec), sketchBytes(t, live.eng)) {
				t.Fatal("recovered layered engine differs from the live one")
			}
		})
	}
}
