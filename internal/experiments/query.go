package experiments

import (
	"fmt"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// queryLatencies ingests res into eng, issuing a connectivity query every
// 10% of the stream, and returns the per-query latencies plus the overall
// ingestion duration (query time excluded).
func queryLatencies(res kron.Result, cfg core.Config) ([]time.Duration, time.Duration, error) {
	cfg.NumNodes = res.NumNodes
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	every := len(res.Updates) / 10
	if every == 0 {
		every = 1
	}
	var lats []time.Duration
	var ingest time.Duration
	chunkStart := time.Now()
	for i, u := range res.Updates {
		if err := eng.Update(u); err != nil {
			return nil, 0, err
		}
		if (i+1)%every == 0 {
			// Drain before starting the query timer: flushing the gutters
			// is ingestion work the engine deferred, and the explicit
			// baselines carry no buffer, so charging it to query latency
			// would skew the Figure 16 comparison.
			if err := eng.Drain(); err != nil {
				return nil, 0, err
			}
			ingest += time.Since(chunkStart)
			qs := time.Now()
			if _, err := eng.SpanningForest(); err != nil {
				return nil, 0, err
			}
			lats = append(lats, time.Since(qs))
			chunkStart = time.Now()
		}
	}
	ingest += time.Since(chunkStart)
	return lats, ingest, nil
}

// baselineQueryLatencies does the same for an explicit baseline.
func baselineQueryLatencies(res kron.Result, newSys func() interface {
	Apply(stream.Update)
	ConnectedComponents() ([]uint32, int)
}) []time.Duration {
	g := newSys()
	every := len(res.Updates) / 10
	if every == 0 {
		every = 1
	}
	var lats []time.Duration
	for i, u := range res.Updates {
		g.Apply(u)
		if (i+1)%every == 0 {
			qs := time.Now()
			g.ConnectedComponents()
			lats = append(lats, time.Since(qs))
		}
	}
	return lats
}

// Fig16 regenerates Figure 16: query latency at every 10% of the stream
// for GraphZeppelin (small 100-update buffers, per the paper) against the
// explicit baselines, in-RAM (16a) and with GZ sketches on the block
// device (16b).
func Fig16(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	t := &Table{
		ID:     "fig16",
		Title:  fmt.Sprintf("Query latency every 10%% of the stream (kron%d)", scale),
		Header: []string{"progress", "GZ in-RAM", "GZ on-disk", "Aspen-like", "Terrace-like"},
		Notes: []string{
			"expected shape: GZ latency ~flat in stream progress (density);",
			"explicit baselines grow as the graph densifies",
		},
	}

	// The paper uses tiny 400-byte buffers (≈100 updates) for this
	// experiment so queries are not dominated by buffer flushing.
	smallBuffers := func(onDisk bool) core.Config {
		return core.Config{
			Seed: o.Seed, Shards: 2,
			BufferFactor:   0.002,
			SketchesOnDisk: onDisk,
		}
	}
	gzRAM, _, err := queryLatencies(res, smallBuffers(false))
	if err != nil {
		return nil, err
	}
	o.logf("fig16: GZ in-RAM done")
	gzDisk, _, err := queryLatencies(res, smallBuffers(true))
	if err != nil {
		return nil, err
	}
	o.logf("fig16: GZ on-disk done")
	asp := baselineQueryLatencies(res, func() interface {
		Apply(stream.Update)
		ConnectedComponents() ([]uint32, int)
	} {
		return newAspenAdapter(res.NumNodes)
	})
	ter := baselineQueryLatencies(res, func() interface {
		Apply(stream.Update)
		ConnectedComponents() ([]uint32, int)
	} {
		return newTerraceAdapter(res.NumNodes)
	})
	o.logf("fig16: baselines done")

	for i := 0; i < len(gzRAM); i++ {
		row := []string{fmt.Sprintf("%d%%", (i+1)*10)}
		for _, lats := range [][]time.Duration{gzRAM, gzDisk, asp, ter} {
			if i < len(lats) {
				row = append(row, fmt.Sprintf("%.1fms", float64(lats[i].Microseconds())/1000))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
