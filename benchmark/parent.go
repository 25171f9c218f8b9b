package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"graphzeppelin/benchmark/workload"
	"graphzeppelin/internal/stream"
)

// Options are the knobs of one benchmark invocation.
type Options struct {
	Seed uint64
	// Seconds sizes the bulk phase; see fillRoundsPer10s.
	Seconds int
	// Scale is the dense Kronecker scale (2^Scale nodes); the social
	// graph has as many nodes and the cluster runs one scale below.
	Scale int
	// Keep leaves the run's directory (inputs, trace.json) in place.
	Keep bool
}

// fillRoundsPer10s sizes the bulk phase in gutter-fill rounds: at
// -seconds 10 the bulk phase carries this many times the updates it
// takes to fill every node's gutter once. A gutter holds more than two
// dense passes' worth of a node's updates, so a short bulk phase would
// be all final Flush; at 3 rounds about three quarters of the batches
// come from full gutters, the steady state the sizing check asks for.
const fillRoundsPer10s = 3.0

// bulkPasses returns how many times the bulk phase streams the pass: an
// odd count (so it ends on the stream's final edge set) that reaches the
// fill rounds -seconds asks for, whatever the scale.
func (o Options) bulkPasses(workloadName string, numNodes uint32, passLen int) int {
	if workloadName == "durable-recover" {
		// Its seals drain the gutters anyway; 5 passes make the phase long
		// enough to time. The last fifth of the volume must fit in the
		// last pass (it is the part only the log holds), hence at most 5.
		return min(5, max(1, o.Seconds/2)|1)
	}
	fillOnce := float64(numNodes) * float64(gutterCap(numNodes, o.Seed)) / 2 // updates; each lands in two gutters
	rounds := fillRoundsPer10s * float64(o.Seconds) / 10
	if workloadName == "cluster-refresh" {
		rounds *= 2 // a smaller graph at a higher rate: twice the rounds for a bulk phase as long
	}
	p := int(math.Ceil(rounds * fillOnce / float64(passLen)))
	if p%2 == 0 {
		p++
	}
	return p
}

// Run is one workload's outcome: what the driver's last line reports,
// plus the details the result file keeps.
type Run struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics, always from the untraced
	// pass; Layers the per-layer metrics of a traced run.
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Samples   map[string]int       `json:"samples,omitempty"`
	Spans     map[string]SpanTotal `json:"spans,omitempty"`
	Budget    []BudgetRow          `json:"budget,omitempty"`
	InputSecs float64              `json:"input_seconds"`
	Dir       string               `json:"dir,omitempty"`
}

// generate builds the workload's inputs and the answers the exact model
// gives at every point the workload queries.
func generate(w Workload, o Options, procs int) (workload.Inputs, []uint64, Plan) {
	var s workload.Stream
	switch w.Name {
	case "disk-social":
		s = workload.Social(uint32(1)<<o.Scale, o.Seed)
	case "cluster-refresh":
		s = workload.DenseKron(o.Scale-1, o.Seed)
	default:
		s = workload.DenseKron(o.Scale, o.Seed)
	}
	plan := Plan{
		Workload:     w.Name,
		Seed:         o.Seed,
		Procs:        procs,
		BulkPasses:   o.bulkPasses(w.Name, s.NumNodes, len(s.Updates)),
		TrickleLen:   min(16, max(1, int(s.NumNodes)/256)),
		ReplayMillis: 3 * o.Seconds,
	}
	trickles := serveSlices
	switch w.Name {
	case "cluster-refresh":
		trickles = clusterCycles
		plan.TrickleLen = max(1, int(s.NumNodes)/100) // about 1 % of the nodes
	case "durable-recover":
		trickles += ckptTrickles
	}
	in := workload.Inputs{
		NumNodes: s.NumNodes,
		Updates:  s.Updates,
		Flip:     workload.FlipBits(s),
		Trickles: workload.Trickles(s, trickles, plan.TrickleLen, o.Seed),
	}
	return in, expect(w.Name, in, plan), plan
}

// expect replays the workload's schedule on the exact model and returns
// the partition hash of every answer the workload will give, in order.
// An update of either type toggles its edge, so whole passes cancel in
// pairs and only the pass count's parity matters.
func expect(name string, in workload.Inputs, plan Plan) []uint64 {
	m := workload.NewModel(in.NumNodes)
	toggle := func(ups []stream.Update) {
		for _, u := range ups {
			m.Toggle(u.Edge)
		}
	}
	var hashes []uint64
	answer := func() {
		rep, _ := m.Components()
		hashes = append(hashes, workload.PartitionHash(rep))
	}
	if plan.BulkPasses%2 == 1 {
		toggle(in.Updates)
	}
	if name == "cluster-refresh" {
		answer()
		for cyc := 0; cyc < clusterCycles; cyc++ {
			toggle(in.Trickles[cyc])
			answer()
			if cyc%fullEvery == fullEvery-1 {
				answer()
			}
		}
		return hashes
	}
	first := 0
	if name == "durable-recover" {
		first = ckptTrickles
		for _, t := range in.Trickles[:first] {
			toggle(t)
		}
	}
	answer()
	for i := 0; i < serveSlices; i++ {
		lo, hi := workload.SliceBounds(len(in.Updates), serveSlices, i)
		toggle(in.Updates[lo:hi])
		answer()
		toggle(in.Trickles[first+i])
		answer()
	}
	return hashes
}

// runWorkload generates the inputs, runs the workload in a child process
// of its own (two when traced: the untraced pass, then the traced one),
// checks every answer against the model, and derives the metrics that
// need both passes.
func runWorkload(w Workload, o Options, traced bool) (*Run, error) {
	procs := w.procs
	if procs == 0 {
		procs = min(runtime.NumCPU(), 2)
	}
	dir, err := os.MkdirTemp("", "gzbench-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	if !o.Keep {
		defer os.RemoveAll(dir)
	}
	t0 := time.Now()
	in, want, plan := generate(w, o, procs)
	plan.InputDir = filepath.Join(dir, "inputs")
	if err := os.MkdirAll(plan.InputDir, 0o755); err != nil {
		return nil, err
	}
	if err := workload.Save(plan.InputDir, in); err != nil {
		return nil, err
	}
	run := &Run{Workload: w.Name, Seed: o.Seed, Metrics: map[string]float64{},
		InputSecs: time.Since(t0).Seconds()}
	if o.Keep {
		run.Dir = dir
	}

	timed, err := runChild(plan, dir, false)
	if err != nil {
		return nil, err
	}
	check(run, timed, want, "untraced")
	for _, d := range endToEnd {
		run.Metrics[d.Name] = timed.Metrics[d.Name]
	}
	run.Samples = timed.Samples
	if traced {
		layered, err := runChild(plan, dir, true)
		if err != nil {
			return nil, err
		}
		check(run, layered, want, "traced")
		run.Budget = derive(procs, timed, layered)
		run.Spans = layered.Spans
		run.Layers = map[string]float64{}
		for _, d := range perLayer {
			src := layered
			if d.Bound > 0 {
				src = timed // a single workload's end-to-end metric
			}
			run.Layers[d.Name] = src.Metrics[d.Name]
		}
	}
	run.Correct = run.Failed == 0 && len(run.Failures) == 0
	return run, nil
}

// runChild runs one pass of the plan in a child process and reads its
// result back.
func runChild(plan Plan, dir string, traced bool) (*Result, error) {
	plan.Traced = traced
	plan.WorkDir = filepath.Join(dir, "untraced")
	if traced {
		plan.WorkDir = filepath.Join(dir, "traced")
	}
	if err := os.MkdirAll(plan.WorkDir, 0o755); err != nil {
		return nil, err
	}
	planPath := filepath.Join(plan.WorkDir, "plan.json")
	if err := writeJSON(planPath, plan); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+planPath, fmt.Sprintf("GOMAXPROCS=%d", plan.Procs))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", plan.Workload, err)
	}
	var res Result
	if err := readJSON(filepath.Join(plan.WorkDir, "result.json"), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// check folds one child's operations into the run and compares every
// answer it gave with the model's.
func check(run *Run, res *Result, want []uint64, pass string) {
	run.Attempted += res.Attempted
	run.Failed += res.Failed
	for _, f := range res.Failures {
		run.Failures = append(run.Failures, pass+": "+f)
	}
	if len(res.Hashes) != len(want) {
		run.Failed++
		run.Failures = append(run.Failures, fmt.Sprintf("%s: %d answers, the schedule has %d", pass, len(res.Hashes), len(want)))
		return
	}
	for i, h := range res.Hashes {
		if h != want[i] {
			run.Failed++
			if len(run.Failures) < 40 {
				run.Failures = append(run.Failures, fmt.Sprintf("%s: answer %d is not the model's partition", pass, i))
			}
		}
	}
}

// BudgetRow is one layer's line of the ingest budget: what one unit of
// its work costs in a standalone replay, how many units the bulk phase
// handed it, and the product.
type BudgetRow struct {
	Layer     string  `json:"layer"`
	UnitNs    float64 `json:"unit_ns"`
	Count     float64 `json:"count"`
	ProductMs float64 `json:"product_ms"`
}

// derive computes, into the traced result, the metrics that set one pass
// against the other or the layer replays against the end-to-end rate,
// and returns the budget rows behind budget.ingest_sum_ns_per_update.
func derive(procs int, timed, traced *Result) []BudgetRow {
	m := traced.Metrics
	if base := timed.Metrics["ingest_mups"]; base > 0 {
		m["trace_overhead_pct"] = 100 * (base - m["ingest_mups"]) / base
	}
	// Only the engine workloads report a bulk phase to budget.
	updates, wallNs := timed.Aux["bulk_updates"], timed.Aux["bulk_wall_s"]*1e9
	if updates == 0 || wallNs == 0 {
		return nil
	}
	batches := timed.Metrics["core.batches"]
	rows := []BudgetRow{
		{Layer: "api.ingestor_ns_per_update", Count: updates},
		{Layer: "gutter.leaf_insert_ns_per_update", Count: updates},
		{Layer: "gutter.leaf_flush_ns_per_batch", Count: timed.Aux["flush_batches"]},
		{Layer: "gutter.spsc_ns_per_batch", Count: batches},
		// Every update lands in two node sketches.
		{Layer: "cubesketch.slab_apply_ns_per_index", Count: 2 * updates},
		{Layer: "wal.append_ns_per_update", Count: updates},
		// The same kernel runs behind the disk cache; a miss adds its
		// fill and write-back on top of what a hit costs.
		{Layer: "diskstore.cache_apply_miss_ns - hit_ns", Count: timed.Aux["cache_misses"],
			UnitNs: m["diskstore.cache_apply_miss_ns"] - m["diskstore.cache_apply_hit_ns"]},
	}
	sum := 0.0
	for i := range rows {
		r := &rows[i]
		if v, ok := m[r.Layer]; ok {
			r.UnitNs = v
		}
		r.ProductMs = r.UnitNs * r.Count / 1e6
		sum += r.UnitNs * r.Count
		if r.Layer == "cubesketch.slab_apply_ns_per_index" {
			m["cubesketch.slab_apply_share"] = r.UnitNs * r.Count / (wallNs * float64(procs))
		}
	}
	m["budget.ingest_sum_ns_per_update"] = sum / updates
	m["budget.ingest_gap_pct"] = 100 * (wallNs - sum) / wallNs
	return rows
}
