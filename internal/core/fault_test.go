package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// oneFault is a device that fails exactly one access once armed: the
// skip+1-th read or write from then on (reads and writes counted apart).
type oneFault struct {
	iomodel.Device
	writes      bool
	armed       atomic.Bool
	skip, count atomic.Int64
}

func (d *oneFault) arm(writes bool, skip int64) {
	d.writes = writes
	d.skip.Store(skip)
	d.count.Store(0)
	d.armed.Store(true)
}

func (d *oneFault) fails(write bool) bool {
	return d.armed.Load() && write == d.writes && d.count.Add(1) == d.skip.Load()+1
}

func (d *oneFault) ReadAt(p []byte, off int64) (int, error) {
	if d.fails(false) {
		return 0, iomodel.ErrInjected
	}
	return d.Device.ReadAt(p, off)
}

func (d *oneFault) WriteAt(p []byte, off int64) (int, error) {
	if d.fails(true) {
		return 0, iomodel.ErrInjected
	}
	return d.Device.WriteAt(p, off)
}

// TestFusedPassFaults fails one device access inside an out-of-core
// query's pass while it applies the gutters' leftover batches: the write
// of a chunk's changed slots, or the read of the pass's second chunk, after
// the first chunk's batches were applied and written. The query must
// return the fault, the engine must stay poisoned for every later call
// although the device works again — batches were half applied — and Close
// must return instead of waiting for batches nobody applies.
func TestFusedPassFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes bool
		skip   int64
		want   string
	}{
		{"write", true, 0, "writing back leftover batches"},
		{"read", false, 1, "query scan"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 128
			dev := &oneFault{Device: iomodel.NewMem(4096)}
			e, err := NewEngine(Config{
				NumNodes: n, Seed: 71, Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: 1,
				DeviceFactory: func(string) (iomodel.Device, error) { return dev, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			edges := randomEdges(n, 400, 71, 72)
			if err := e.InsertEdges(edges[:200]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ConnectedComponents(); err != nil {
				t.Fatal(err)
			}
			if err := e.InsertEdges(edges[200:]); err != nil {
				t.Fatal(err)
			}
			e.pending.Wait() // no worker I/O left to take the fault
			dev.arm(tc.writes, tc.skip)
			_, _, err = e.ConnectedComponents()
			if !errors.Is(err, iomodel.ErrInjected) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("the faulted query returned %v; want the injected fault from %q", err, tc.want)
			}
			if dev.count.Load() <= tc.skip {
				t.Fatal("the fault was never injected")
			}
			if _, _, err := e.ConnectedComponents(); !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("the next query returned %v; want the sticky fault", err)
			}
			if err := e.InsertEdge(0, 1); !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("an update after the fault returned %v; want the sticky fault", err)
			}
			if err := e.Drain(); !errors.Is(err, iomodel.ErrInjected) {
				t.Fatalf("Drain after the fault returned %v; want the sticky fault", err)
			}
			closed := make(chan error, 1)
			go func() { closed <- e.Close() }()
			select {
			case err := <-closed:
				if !errors.Is(err, iomodel.ErrInjected) {
					t.Fatalf("Close returned %v; want the sticky fault", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close hung after a fault in the query's pass")
			}
		})
	}
}
