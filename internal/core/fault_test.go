package core

import (
	"errors"
	"testing"

	"graphzeppelin/internal/iomodel"
)

// faultFactory returns a DeviceFactory whose devices fail after n
// successful operations each.
func faultFactory(n int64) func(string) (iomodel.Device, error) {
	return func(string) (iomodel.Device, error) {
		return iomodel.NewFault(iomodel.NewMem(512), n), nil
	}
}

func TestDiskFaultSurfacesThroughUpdates(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:       16,
		Seed:           51,
		SketchesOnDisk: true,
		CacheBytes:     1,       // one resident group: nearly every batch evicts one
		BufferFactor:   0.00001, // tiny gutters: every update hits the store
		DeviceFactory:  faultFactory(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sawErr error
	for i := 0; i < 3000 && sawErr == nil; i++ {
		u := uint32(i % 15)
		sawErr = e.InsertEdge(u, u+1)
	}
	if sawErr == nil {
		// The error may still be pending in a worker; Drain must report it.
		sawErr = e.Drain()
	}
	if !errors.Is(sawErr, iomodel.ErrInjected) {
		t.Fatalf("disk fault not surfaced: %v", sawErr)
	}
}

func TestDiskFaultSurfacesThroughQuery(t *testing.T) {
	// Enough budget to ingest, but the query's full scan trips the fault.
	// The cache holds one group, so the scan reads every other one off the
	// device; the ingest-side equivalent is TestCacheWriteBackFaultSurfaces.
	e, err := NewEngine(Config{
		NumNodes:       8,
		Seed:           52,
		SketchesOnDisk: true,
		CacheBytes:     1,
		DeviceFactory:  faultFactory(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 7; i++ {
		if err := e.InsertEdge(uint32(i), uint32(i+1)); err != nil {
			return // surfaced during ingestion: fine
		}
	}
	// Each full query scans the live slots, so the op budget runs out
	// within a bounded number of queries and the scan error must surface.
	// Toggle an edge between attempts: an unchanged graph is answered
	// from the epoch cache with no I/O at all.
	for q := 0; q < 100; q++ {
		if _, err := e.SpanningForest(); err != nil {
			if !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		if err := e.InsertEdge(0, 1); err != nil {
			if !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
	}
	t.Fatal("query on a failing device never surfaced the fault")
}

func TestGutterTreeFaultSurfaces(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:      32,
		Seed:          53,
		Buffering:     BufferTree,
		DeviceFactory: faultFactory(5),
	})
	if err != nil {
		// The tree preallocates through the device; failing there is an
		// acceptable surfacing point too.
		if errors.Is(err, iomodel.ErrInjected) {
			return
		}
		t.Fatal(err)
	}
	defer e.Close()
	var sawErr error
	for i := 0; i < 100000 && sawErr == nil; i++ {
		u := uint32(i % 31)
		sawErr = e.InsertEdge(u, u+1)
	}
	if !errors.Is(sawErr, iomodel.ErrInjected) {
		t.Fatalf("gutter-tree fault not surfaced: %v", sawErr)
	}
}

// TestUpdatesStatExcludesErroredUpdates drives a gutter-tree engine into
// a device fault and checks Stats().Updates counts exactly the Update
// calls that succeeded — an errored update must never inflate the stat.
func TestUpdatesStatExcludesErroredUpdates(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:      32,
		Seed:          55,
		Buffering:     BufferTree,
		DeviceFactory: faultFactory(5),
	})
	if err != nil {
		if errors.Is(err, iomodel.ErrInjected) {
			return
		}
		t.Fatal(err)
	}
	defer e.Close()
	var succeeded uint64
	for i := 0; i < 100000; i++ {
		u := uint32(i % 31)
		if err := e.InsertEdge(u, u+1); err != nil {
			break
		}
		succeeded++
	}
	if succeeded == 100000 {
		t.Fatal("fault never tripped; test needs a smaller op budget")
	}
	if got := e.Stats().Updates; got != succeeded {
		t.Fatalf("Updates stat = %d, want %d (only successful updates)", got, succeeded)
	}
}

// TestCacheWriteBackFaultSurfaces drives the tiered path into a device
// fault: a one-group cache budget forces an eviction write-back on nearly
// every batch, so the op budget runs out inside the cache's fill/spill
// cycle and the error must surface through ingest or Drain.
func TestCacheWriteBackFaultSurfaces(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:       64,
		Seed:           56,
		SketchesOnDisk: true,
		CacheBytes:     1, // floor: one resident group — constant eviction
		NodesPerGroup:  2,
		BufferFactor:   0.00001,
		DeviceFactory:  faultFactory(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sawErr error
	for i := 0; i < 100000 && sawErr == nil; i++ {
		u := uint32(i % 63)
		sawErr = e.InsertEdge(u, u+1)
	}
	if sawErr == nil {
		sawErr = e.Drain()
	}
	if !errors.Is(sawErr, iomodel.ErrInjected) {
		t.Fatalf("cache fill/write-back fault not surfaced: %v", sawErr)
	}
}

func TestHealthyFactoryStillWorks(t *testing.T) {
	e, err := NewEngine(Config{
		NumNodes:       16,
		Seed:           54,
		SketchesOnDisk: true,
		DeviceFactory: func(string) (iomodel.Device, error) {
			return iomodel.NewMem(512), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 15; i++ {
		mustUpdate(t, e, uint32(i), uint32(i+1))
	}
	_, count, err := e.ConnectedComponents()
	if err != nil || count != 1 {
		t.Fatalf("count = %d, err = %v", count, err)
	}
}
