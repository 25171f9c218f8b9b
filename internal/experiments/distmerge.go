package experiments

import (
	"bytes"
	"fmt"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/kron"
)

// DistributedMerge realizes the distributed-ingestion direction of the
// paper's conclusion as a measured sweep: the stream is split round-robin
// into K disjoint shards, each ingested by an independent engine (standing
// in for K machines), every shard ships its checkpoint, and one
// aggregator merges them all. The table reports checkpoint size, write and
// merge rates, the ingest stall of the low-stall snapshot, and — the
// linearity guarantee — that the merged engine's Connected answers are
// identical to a single engine that ingested the whole stream.
func DistributedMerge(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	n := len(res.Updates)
	t := &Table{
		ID:     "distmerge",
		Title:  fmt.Sprintf("Distributed shard merge via checkpoints (kron%d)", scale),
		Header: []string{"shards", "ckpt total", "write rate", "stall", "merge rate", "vs reference"},
		Notes: []string{
			"each shard ingests a disjoint 1/K of the stream; checkpoints merge into one engine",
			"write/merge rate = checkpoint MiB per second of WriteCheckpoint/MergeCheckpoint wall time",
			"stall = max time ingestion was quiesced by a shard's snapshot (drain + seal, not the stream write)",
			"vs reference = merged engine's component partition equals a single engine over the whole stream",
		},
	}

	// Single-engine reference over the whole stream.
	ref, _, err := runGZ(res, core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	refRep, refCount, err := ref.ConnectedComponents()
	ref.Close()
	if err != nil {
		return nil, err
	}

	for _, k := range []int{2, 4, 8} {
		row, err := runMergeTrial(res, o, k, refRep, refCount)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
		o.logf("distmerge: shards=%d done (%d updates)", k, n)
	}
	return t, nil
}

// runMergeTrial ingests the stream round-robin into k shard engines,
// ships their checkpoints into a fresh aggregator, and returns the
// measured table row. Engines live only for the trial.
func runMergeTrial(res kron.Result, o Options, k int, refRep []uint32, refCount int) ([]string, error) {
	shards := make([]*core.Engine, k)
	defer func() {
		for _, eng := range shards {
			if eng != nil {
				eng.Close()
			}
		}
	}()
	for i := range shards {
		eng, err := core.NewEngine(core.Config{NumNodes: res.NumNodes, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		shards[i] = eng
	}
	for i, u := range res.Updates {
		if err := shards[i%k].Update(u); err != nil {
			return nil, err
		}
	}

	var ckpts []*bytes.Buffer
	var totalBytes int64
	var writeDur time.Duration
	var maxStall uint64
	for _, eng := range shards {
		var buf bytes.Buffer
		start := time.Now()
		if err := eng.WriteCheckpoint(&buf); err != nil {
			return nil, err
		}
		writeDur += time.Since(start)
		if st := eng.Stats().CheckpointStallNanos; st > maxStall {
			maxStall = st
		}
		totalBytes += int64(buf.Len())
		ckpts = append(ckpts, &buf)
	}

	agg, err := core.NewEngine(core.Config{NumNodes: res.NumNodes, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	defer agg.Close()
	mergeStart := time.Now()
	for _, buf := range ckpts {
		if err := agg.MergeCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
	}
	mergeDur := time.Since(mergeStart)

	rep, count, err := agg.ConnectedComponents()
	if err != nil {
		return nil, err
	}
	match := "MATCH"
	if count != refCount || !samePartition(rep, refRep) {
		match = "MISMATCH"
	}

	mib := float64(totalBytes) / (1 << 20)
	return []string{
		fmt.Sprintf("%d", k),
		fmt.Sprintf("%.1f MiB", mib),
		fmt.Sprintf("%.1f MiB/s", mib/writeDur.Seconds()),
		fmt.Sprintf("%.2f ms", float64(maxStall)/1e6),
		fmt.Sprintf("%.1f MiB/s", mib/mergeDur.Seconds()),
		match,
	}, nil
}
