// Package trace is the benchmark's in-memory span recorder. Spans are
// opened and closed from the benchmark's own files, around its calls into
// each layer's public functions; nothing inside the measured program is
// instrumented. Spans stay in memory until the run ends.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Root is the parent id of a span nothing caused.
const Root = -1

// Span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the id of the span that caused this
// one, or Root. All spans of one run share the workload id.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// Recorder collects spans; it is safe for concurrent use. A nil
// *Recorder records nothing, so an untraced run executes the same call
// sites with tracing off.
type Recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []Span
}

// New returns a recorder whose spans carry the given workload id.
func New(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent int) int {
	if r == nil {
		return Root
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Total aggregates the spans of one name.
type Total struct {
	Count int
	// Nanos sums the spans' durations; SelfNanos sums their self times.
	Nanos, SelfNanos int64
	// Durations lists each span's duration in recording order.
	Durations []int64
}

// SelfNanos returns each span's self time, indexed by span id: its
// duration minus the part of its interval that its child spans cover.
// Children may overlap one another (concurrent callers under one parent)
// and may stick out of the parent; covered time is counted once and only
// inside the parent's interval.
func SelfNanos(spans []Span) []int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != Root {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// ByName aggregates spans by name.
func ByName(spans []Span) map[string]*Total {
	self := SelfNanos(spans)
	out := make(map[string]*Total)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &Total{}
			out[s.Name] = t
		}
		t.Count++
		t.Nanos += s.End - s.Start
		t.SelfNanos += self[s.ID]
		t.Durations = append(t.Durations, s.End-s.Start)
	}
	return out
}
