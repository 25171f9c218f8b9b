package trace

import "testing"

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: Root, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "b", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "a", Start: 50, End: 70},
	}
	self := SelfNanos(spans)
	for id, want := range []int64{50, 20, 10, 20} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	by := ByName(spans)
	if a := by["a"]; a.Count != 2 || a.Nanos != 50 || a.SelfNanos != 40 {
		t.Errorf("a: %+v", *a)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two concurrent children overlap on [30,50]; one sticks out past
	// the parent's end and one is contained in another.
	spans := []Span{
		{ID: 0, Parent: Root, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "p0", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "p1", Start: 30, End: 70},
		{ID: 3, Parent: 0, Name: "p1", Start: 35, End: 45},
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120},
	}
	self := SelfNanos(spans)
	// Covered: [10,70] and [90,100] = 70, so the root keeps 30.
	if self[0] != 30 {
		t.Errorf("root self %d, want 30", self[0])
	}
	if self[4] != 30 {
		t.Errorf("childless span keeps its whole duration: got %d", self[4])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", Root)
	r.End(id)
	if len(r.Spans()) != 0 {
		t.Fatal("nil recorder produced spans")
	}
}

func TestRecorderParents(t *testing.T) {
	r := New("w")
	root := r.Begin("root", Root)
	kid := r.Begin("kid", root)
	r.End(kid)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Workload != "w" {
		t.Fatalf("spans: %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child not inside parent: %+v", spans)
	}
}
