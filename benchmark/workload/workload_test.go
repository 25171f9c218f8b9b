package workload

import (
	"reflect"
	"testing"

	"graphzeppelin/internal/stream"
)

// testStreams are small instances of both generators.
func testStreams(seed uint64) map[string]Stream {
	return map[string]Stream{
		"kron":   DenseKron(7, seed),
		"social": Social(256, seed),
	}
}

func TestGeneratorsAreDeterministicInSeed(t *testing.T) {
	for name, a := range testStreams(5) {
		b := testStreams(5)[name]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		c := testStreams(6)[name]
		if reflect.DeepEqual(a.Updates, c.Updates) {
			t.Errorf("%s: different seeds gave the same stream", name)
		}
		if !reflect.DeepEqual(Trickles(a, 6, 2, 5), Trickles(b, 6, 2, 5)) {
			t.Errorf("%s: the same seed gave different trickles", name)
		}
	}
}

// replay applies passes passes of s to a fresh model with type checking,
// flipping types between passes as the measured processes do.
func replay(t *testing.T, s Stream, passes int) *Model {
	t.Helper()
	m := NewModel(s.NumNodes)
	ups := append([]stream.Update(nil), s.Updates...)
	flip := FlipBits(s)
	for pass := 1; pass <= passes; pass++ {
		if pass > 1 {
			FlipTypes(ups, flip, 0, len(ups))
		}
		for i, u := range ups {
			if err := m.Apply(u); err != nil {
				t.Fatalf("pass %d, update %d: %v", pass, i, err)
			}
		}
	}
	return m
}

func edgeSet(m *Model) map[stream.Edge]bool {
	set := map[stream.Edge]bool{}
	for u := uint32(0); u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			if e := (stream.Edge{U: u, V: v}); m.Has(e) {
				set[e] = true
			}
		}
	}
	return set
}

func TestEveryPassIsWellFormedAndEndsOnTheKnownEdgeSet(t *testing.T) {
	for name, s := range testStreams(7) {
		want := map[stream.Edge]bool{}
		for _, e := range s.Final {
			want[e] = true
		}
		if got := edgeSet(replay(t, s, 1)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one pass ends on %d edges, Final has %d", name, len(got), len(want))
		}
		if got := edgeSet(replay(t, s, 2)); len(got) != 0 {
			t.Errorf("%s: two passes leave %d edges, want the empty graph", name, len(got))
		}
		if got := edgeSet(replay(t, s, 3)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: three passes do not end on Final", name)
		}
	}
}

func TestDisconnectedSetIsCutOff(t *testing.T) {
	for name, s := range testStreams(9) {
		if len(s.Disconnected) == 0 {
			t.Fatalf("%s: no disconnected set", name)
		}
		cut := map[uint32]bool{}
		for _, v := range s.Disconnected {
			cut[v] = true
		}
		for _, e := range s.Final {
			if cut[e.U] != cut[e.V] {
				t.Fatalf("%s: final edge (%d,%d) crosses the cut", name, e.U, e.V)
			}
		}
	}
}

func TestSocialMixIsMostlyInserts(t *testing.T) {
	s := Social(512, 3)
	deletes := 0
	for _, u := range s.Updates {
		if u.Type == stream.Delete {
			deletes++
		}
	}
	share := float64(deletes) / float64(len(s.Updates))
	if share < 0.10 || share > 0.20 {
		t.Errorf("delete share %.3f, want about 0.15", share)
	}
	// Recurring touches: some edge is updated more than twice.
	seen := map[stream.Edge]int{}
	most := 0
	for _, u := range s.Updates {
		seen[u.Edge]++
		most = max(most, seen[u.Edge])
	}
	if most < 3 {
		t.Errorf("no edge is touched more than %d times", most)
	}
}

// TestTricklesInterleaveAnywhere checks the property the serve phase
// relies on: trickles stay well formed between any two slices of any
// pass, and each one changes the partition.
func TestTricklesInterleaveAnywhere(t *testing.T) {
	for name, s := range testStreams(11) {
		const slices = 10
		trickles := Trickles(s, slices, 3, 11)
		m := replay(t, s, 1)
		ups := append([]stream.Update(nil), s.Updates...)
		FlipTypes(ups, FlipBits(s), 0, len(ups)) // the serve pass is an even pass
		for i := 0; i < slices; i++ {
			lo, hi := SliceBounds(len(ups), slices, i)
			for _, u := range ups[lo:hi] {
				if err := m.Apply(u); err != nil {
					t.Fatalf("%s: slice %d: %v", name, i, err)
				}
			}
			before, _ := m.Components()
			for _, u := range trickles[i] {
				if err := m.Apply(u); err != nil {
					t.Fatalf("%s: trickle %d: %v", name, i, err)
				}
			}
			after, _ := m.Components()
			if PartitionHash(before) == PartitionHash(after) {
				t.Errorf("%s: trickle %d left the partition unchanged", name, i)
			}
		}
	}
}

func TestModelComponentsAndCanonicalForm(t *testing.T) {
	m := NewModel(6)
	for _, e := range []stream.Edge{{U: 4, V: 5}, {U: 1, V: 3}, {U: 3, V: 5}} {
		m.Toggle(e)
	}
	rep, count := m.Components()
	if want := []uint32{0, 1, 2, 1, 1, 1}; !reflect.DeepEqual(rep, want) || count != 3 {
		t.Fatalf("rep %v count %d, want %v and 3", rep, count, want)
	}
	// Any labelling of the same partition has the same canonical form.
	other := []uint32{0, 5, 2, 5, 5, 5}
	if !reflect.DeepEqual(Canonical(other), rep) || PartitionHash(other) != PartitionHash(rep) {
		t.Errorf("canonical form of %v is %v, want %v", other, Canonical(other), rep)
	}
	if PartitionHash([]uint32{0, 1, 2, 3, 1, 1}) == PartitionHash(rep) {
		t.Error("different partitions hash alike")
	}
	if err := m.Apply(stream.Update{Edge: stream.Edge{U: 4, V: 5}, Type: stream.Insert}); err == nil {
		t.Error("inserting a present edge was accepted")
	}
	if err := m.Apply(stream.Update{Edge: stream.Edge{U: 0, V: 2}, Type: stream.Delete}); err == nil {
		t.Error("deleting an absent edge was accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := DenseKron(6, 2)
	in := Inputs{NumNodes: s.NumNodes, Updates: s.Updates, Flip: FlipBits(s), Trickles: Trickles(s, 4, 2, 2)}
	dir := t.TempDir()
	if err := Save(dir, in); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Error("loaded inputs differ from the saved ones")
	}
}
