package experiments

import (
	"fmt"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/kron"
)

// CacheSweep measures the tiered out-of-core store: disk-mode ingestion
// across a write-back cache budget × node-group size grid. For every point
// it reports the ingestion rate, the absolute sketch-store block I/Os per
// update (construction-time slot initialization excluded — the Lemma 4
// quantity the grouped flushes bound), the cache hit rate, and whether the
// recovered partition matches a RAM-mode engine over the same stream.
func CacheSweep(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	n := len(res.Updates)
	t := &Table{
		ID:     "cache",
		Title:  fmt.Sprintf("Write-back cache budget × node-group size, disk-mode ingest (kron%d)", scale),
		Header: []string{"config", "rate", "blocks/update", "hit rate", "matches RAM"},
		Notes: []string{
			"blocks/update counts sketch-store block I/Os for ingest+drain plus the close-time dirty spill (one-time slot init and read-only query scans excluded) — full-lifecycle, not deferral-flattered",
			"groups sized toward the 16 KiB device block unless npg is pinned; cache budgets in bytes",
		},
	}

	// RAM-mode reference partition for the correctness column.
	ramEng, _, err := runGZ(res, core.Config{Seed: o.Seed, Workers: 2})
	if err != nil {
		return nil, err
	}
	wantRep, wantCount, err := ramEng.ConnectedComponents()
	ramEng.Close()
	if err != nil {
		return nil, err
	}

	type point struct {
		name string
		cfg  core.Config
	}
	points := []point{
		{"cache=64KiB npg=1", core.Config{CacheBytes: 64 << 10, NodesPerGroup: 1}},
		{"cache=64KiB npg=auto", core.Config{CacheBytes: 64 << 10}},
		{"cache=1MiB npg=auto", core.Config{CacheBytes: 1 << 20}},
		{"cache=32MiB npg=1", core.Config{NodesPerGroup: 1}},
		{"cache=32MiB npg=auto", core.Config{}},
		{"cache=32MiB npg=16", core.Config{NodesPerGroup: 16}},
	}
	for _, p := range points {
		cfg := p.cfg
		cfg.Seed = o.Seed
		cfg.Workers = 2
		cfg.SketchesOnDisk = true
		row, err := cachePoint(p.name, cfg, res, n, wantRep, wantCount)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
		o.logf("cache: %s done", p.name)
	}
	return t, nil
}

// cachePoint runs one sweep configuration and formats its table row.
func cachePoint(name string, cfg core.Config, res kron.Result, n int, wantRep []uint32, wantCount int) ([]string, error) {
	cfg.NumNodes = res.NumNodes
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ioBefore := eng.Stats().SketchIO
	start := time.Now()
	for _, u := range res.Updates {
		if err := eng.Update(u); err != nil {
			return nil, err
		}
	}
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	dur := time.Since(start)
	ioDrained := eng.Stats().SketchIO

	rep, count, err := eng.ConnectedComponents()
	if err != nil {
		return nil, err
	}
	match := "MATCH"
	if count != wantCount || !samePartition(rep, wantRep) {
		match = "MISMATCH"
	}

	// Charge the cached modes their deferred dirty-group spill (the
	// write delta through Close) on top of the ingest delta, so the
	// blocks/update column is full-lifecycle rather than
	// deferral-flattered. Queries only read, so taking the write delta
	// keeps the (read-only) query scan out of the figure. Stats stay
	// readable after Close.
	if err := eng.Close(); err != nil {
		return nil, err
	}
	st := eng.Stats()
	blocks := ioDrained.TotalBlocks() - ioBefore.TotalBlocks() +
		st.SketchIO.WriteBlocks - ioDrained.WriteBlocks

	hitRate := "-"
	if lookups := st.SketchCache.Hits + st.SketchCache.Misses; lookups > 0 {
		hitRate = fmt.Sprintf("%.1f%%", 100*float64(st.SketchCache.Hits)/float64(lookups))
	}
	return []string{
		name,
		rate(n, dur),
		fmt.Sprintf("%.4f", float64(blocks)/float64(n)),
		hitRate,
		match,
	}, nil
}
