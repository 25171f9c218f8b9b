package diskstore

import (
	"bytes"
	"testing"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/iomodel"
)

// cacheFixture builds a grouped store of numNodes sketches (initialized to
// the empty encoding) plus a cache with the given byte budget.
func cacheFixture(t *testing.T, numNodes uint32, npg int, budget int64, shards int) (*Store, *Cache, *iomodel.MemDevice) {
	t.Helper()
	const vecLen = 1 << 10
	seeds := []uint64{1, 2}
	proto := cubesketch.NewSlab(1, vecLen, 3, seeds)
	slot := proto.NodeSize()
	dev := iomodel.NewMem(512)
	st, err := New(dev, numNodes, slot, npg)
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]byte, slot)
	proto.MarshalNode(0, empty)
	for n := uint32(0); n < numNodes; n++ {
		if err := st.Write(n, empty); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(st, CacheConfig{
		Bytes:  budget,
		Shards: shards,
		NewSlab: func() *cubesketch.Slab {
			return cubesketch.NewSlab(npg, vecLen, 3, seeds)
		},
	})
	return st, c, dev
}

func TestCacheHitMissAndResidency(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1<<30, 1)
	before := st.Stats()
	// First touch of group 0 is a miss (one group read), second is a hit
	// with zero device traffic.
	if err := c.Apply(0, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(1, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if got := after.ReadOps - before.ReadOps; got != 1 {
		t.Fatalf("two applies to one group cost %d reads, want 1", got)
	}
	if after.WriteOps != before.WriteOps {
		t.Fatal("apply path wrote to the device")
	}
	cs := c.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.CachedGroups != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 group", cs)
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("group 0 not peekable after apply")
	}
	if _, ok := c.Peek(3); ok {
		t.Fatal("never-touched group peekable")
	}
}

func TestCacheEvictionWritesBackAndPersists(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1, 1) // budget floor: one resident group
	idx := []uint64{7}
	if err := c.Apply(0, idx); err != nil { // group 0 resident, dirty
		t.Fatal(err)
	}
	if err := c.Apply(4, idx); err != nil { // evicts group 0 (write-back)
		t.Fatal(err)
	}
	cs := c.Stats()
	if cs.Evictions != 1 || cs.WriteBacks != 1 || cs.CachedGroups != 1 {
		t.Fatalf("stats = %+v, want 1 eviction / 1 write-back / 1 resident", cs)
	}
	// Reloading group 0 must see the applied toggle: apply the same index
	// again (cancelling it), write everything back, and check the slot is
	// byte-identical to the empty encoding.
	if err := c.Apply(0, idx); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, st.SlotSize())
	if err := st.Read(0, slot); err != nil {
		t.Fatal(err)
	}
	empty := make([]byte, st.SlotSize())
	if err := st.Read(3, empty); err != nil { // node 3 was never touched
		t.Fatal(err)
	}
	if string(slot) != string(empty) {
		t.Fatal("toggle did not cancel through an eviction round trip")
	}
}

func TestCacheInvalidateDropsEntries(t *testing.T) {
	_, c, _ := cacheFixture(t, 8, 2, 1<<30, 2)
	if err := c.Apply(0, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	cs := c.Stats()
	if cs.CachedGroups != 0 || cs.CachedBytes != 0 {
		t.Fatalf("entries survive Invalidate: %+v", cs)
	}
	if _, ok := c.Peek(0); ok {
		t.Fatal("invalidated group still peekable")
	}
}

func TestCacheWriteBarrierSeesPreImage(t *testing.T) {
	st, c, _ := cacheFixture(t, 4, 2, 1<<30, 1)
	if err := c.Apply(0, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	needed := true
	c.SetWriteBarrier(&WriteBarrier{
		NeedPreImage: func(uint32, int) bool { return needed },
		Deposit: func(start uint32, count int, pre []byte) {
			for j := 0; j < count; j++ {
				got = append(got, append([]byte(nil), pre[j*st.SlotSize():(j+1)*st.SlotSize()]...))
			}
			_ = start
		},
	})
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("barrier saw %d slots, want 2", len(got))
	}
	// The pre-image is the device state before the write-back: the empty
	// encoding, not the dirtied sketch.
	empty := make([]byte, st.SlotSize())
	if err := st.Read(3, empty); err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != string(empty) {
		t.Fatal("barrier pre-image is not the pre-write device bytes")
	}
	dirty := make([]byte, st.SlotSize())
	if err := st.Read(0, dirty); err != nil {
		t.Fatal(err)
	}
	if string(dirty) == string(empty) {
		t.Fatal("write-back did not reach the device")
	}
	// When NeedPreImage reports false (the snapshot scanner has passed the
	// section), the write-back must skip both the deposit and the
	// pre-image device read.
	got = got[:0]
	needed = false
	if err := c.Apply(0, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	readsBefore := st.Stats().ReadOps
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("barrier deposited despite NeedPreImage=false")
	}
	if st.Stats().ReadOps != readsBefore {
		t.Fatal("write-back read a pre-image despite NeedPreImage=false")
	}

	// A cleared barrier stays cleared.
	c.SetWriteBarrier(nil)
	if err := c.Apply(0, []uint64{11}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("cleared barrier still invoked")
	}
}

// TestApplyCapturePreImage pins the capture hook: pre receives the node's
// serialized stack as it stood before the batch — on a miss (straight off
// the fill) and on a hit (out of the decoded arena, which is ahead of the
// device) — and costs no device access of its own.
func TestApplyCapturePreImage(t *testing.T) {
	st, c, _ := cacheFixture(t, 8, 2, 1<<30, 1)
	slot := st.SlotSize()
	empty := make([]byte, slot)
	if err := st.Read(3, empty); err != nil {
		t.Fatal(err)
	}
	pre := make([]byte, slot)
	if err := c.ApplyCapture(3, []uint64{5, 9}, pre); err != nil { // miss
		t.Fatal(err)
	}
	if !bytes.Equal(pre, empty) {
		t.Fatal("pre-image of a never-touched node is not the empty encoding")
	}
	slab, _ := c.Peek(1)
	applied := make([]byte, slot)
	slab.MarshalNode(1, applied)
	if bytes.Equal(applied, empty) {
		t.Fatal("the batch did not apply")
	}
	before := st.Stats()
	if err := c.ApplyCapture(3, []uint64{7}, pre); err != nil { // hit, dirty group
		t.Fatal(err)
	}
	if !bytes.Equal(pre, applied) {
		t.Fatal("pre-image of a resident node is not its decoded pre-apply state")
	}
	if after := st.Stats(); after != before {
		t.Fatalf("capture on a hit touched the device: %+v vs %+v", after, before)
	}
}
