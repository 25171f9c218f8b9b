package gzserve

import (
	"fmt"
	"io"

	"graphzeppelin/internal/core"
)

// CheckpointSource yields one part's full checkpoint stream; the
// coordinator backs it with a worker's /v1/checkpoint response.
// Aggregate closes the returned reader.
type CheckpointSource func() (io.ReadCloser, error)

// Aggregate builds a fresh in-RAM aggregator engine from cfg and merges
// every source's checkpoint into it — the coordinator's merge-based
// aggregation path. On error the partial aggregator is closed and the failing source's
// index is reported.
func Aggregate(cfg core.Config, sources []CheckpointSource) (*core.Engine, error) {
	cfg.SketchesOnDisk = false
	cfg.Dir = ""
	agg, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for i, src := range sources {
		if err := mergeOne(agg, src); err != nil {
			agg.Close()
			return nil, fmt.Errorf("gzserve: aggregating part %d: %w", i, err)
		}
	}
	return agg, nil
}

func mergeOne(agg *core.Engine, src CheckpointSource) error {
	rc, err := src()
	if err != nil {
		return err
	}
	defer rc.Close()
	return agg.MergeCheckpoint(rc)
}
