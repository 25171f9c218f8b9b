package diskstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/cubesketch"
)

// Cache is the sharded write-back cache between the Graph Workers and the
// grouped sketch store: group slots are decoded once into reused
// cubesketch.Slab arenas and batches apply to the decoded form, so a
// group slot costs one device read per residency (plus one coalesced
// write-back when a dirty group is evicted or flushed) instead of a full
// read–decode–apply–encode–write round trip per batch. Entries are
// sharded by group id across independently locked shards, so workers
// applying to different groups rarely contend; within a shard a CLOCK
// hand evicts under a fixed byte budget.
//
// Coherence contract: everything the engine reads directly off the store
// (query scans, checkpoint section scans, merges) must either go through
// Peek or run after WriteBackAll/Invalidate — a dirty cached group makes
// the device bytes stale by design. The write barrier (SetWriteBarrier)
// lets the checkpoint subsystem capture pre-images before a write-back
// mutates device bytes mid-snapshot.
type Cache struct {
	store     *Store
	newSlab   func() *cubesketch.Slab
	slabBytes int64
	shards    []cacheShard
	// spare parks one pre-allocated (or load-failed) arena for the next
	// fill, so the construction probe is not wasted.
	spareMu sync.Mutex
	spare   *cubesketch.Slab
	// barrier, when set, captures group pre-images before a write-back
	// overwrites device bytes (the checkpoint copy-on-write hook).
	barrier atomic.Pointer[WriteBarrier]
}

// WriteBarrier is the checkpoint subsystem's copy-on-write hook into the
// cache's write-back path. Before overwriting a group's device bytes the
// cache asks NeedPreImage whether any node of the group still needs its
// pre-image; only then does it pay the extra device read and hand the old
// bytes to Deposit (whose buffer is valid only during the call). The
// gate matters: once the snapshot scanner has passed a section, its
// pre-images are worthless, and a long checkpoint-stream window over a
// small cache would otherwise double every eviction's read I/O.
type WriteBarrier struct {
	NeedPreImage func(start uint32, count int) bool
	Deposit      func(start uint32, count int, pre []byte)
}

// CacheStats reports cache activity and footprint.
type CacheStats struct {
	// Hits and Misses count group lookups on the apply path; a miss costs
	// one group read (and possibly one eviction write-back).
	Hits, Misses uint64
	// Evictions counts entries displaced by the CLOCK hand; WriteBacks
	// counts dirty groups written back to the device (evictions of dirty
	// entries plus explicit flushes).
	Evictions, WriteBacks uint64
	// CachedGroups and CachedBytes are the current residency.
	CachedGroups int
	CachedBytes  int64
}

// CacheConfig sizes a Cache.
type CacheConfig struct {
	// Bytes is the total decoded-group budget across all shards. Each
	// shard keeps at least one entry, so the effective floor is one group
	// arena per shard.
	Bytes int64
	// Shards is the number of independently locked cache shards (minimum
	// 1); groups map to shards by group % Shards.
	Shards int
	// NewSlab allocates one decoded-group arena (NodesPerGroup node
	// sketches with the engine's geometry and round seeds).
	NewSlab func() *cubesketch.Slab
}

type groupEntry struct {
	group int
	count int // nodes in this group (last group may be short)
	slab  *cubesketch.Slab
	dirty bool
	ref   bool // CLOCK reference bit
}

type cacheShard struct {
	mu         sync.Mutex
	entries    map[int]*groupEntry
	ring       []*groupEntry // CLOCK ring, at most maxEntries long
	hand       int
	maxEntries int
	fill       []byte // group (de)serialization scratch
	pre        []byte // pre-image scratch for the write barrier

	hits, misses, evictions, writeBacks uint64
}

// NewCache builds a write-back cache over store. One arena is allocated
// up front to size the budget; steady-state fills reuse evicted arenas,
// so the apply path allocates nothing once the cache is warm.
func NewCache(store *Store, cfg CacheConfig) *Cache {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > store.NumGroups() {
		cfg.Shards = store.NumGroups()
	}
	probe := cfg.NewSlab()
	c := &Cache{
		store:     store,
		newSlab:   cfg.NewSlab,
		slabBytes: int64(probe.Bytes()),
		shards:    make([]cacheShard, cfg.Shards),
	}
	perShard := cfg.Bytes / int64(cfg.Shards)
	maxEntries := int(perShard / c.slabBytes)
	if maxEntries < 1 {
		maxEntries = 1 // a cache that can hold nothing cannot apply batches
	}
	if g := store.NumGroups(); maxEntries > g {
		maxEntries = g
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			entries:    make(map[int]*groupEntry, maxEntries),
			maxEntries: maxEntries,
			fill:       make([]byte, store.GroupBytes()),
			pre:        make([]byte, store.GroupBytes()),
		}
	}
	// Seed the first fill with the probe arena instead of dropping it.
	c.spare = probe
	return c
}

// SetWriteBarrier installs (or, with nil, removes) the copy-on-write
// barrier consulted before every write-back. The engine points this at
// the active checkpoint snapshot's capture.
func (c *Cache) SetWriteBarrier(wb *WriteBarrier) {
	c.barrier.Store(wb)
}

func (c *Cache) shardOf(group int) *cacheShard {
	return &c.shards[group%len(c.shards)]
}

// Apply routes one node-keyed batch of characteristic-vector indices
// through the cache: the node's group is decoded on miss (evicting under
// the budget), the batch applies to the decoded arena, and the group is
// marked dirty. The device is touched only on miss fill and dirty
// write-back — repeated batches against resident groups are pure RAM.
func (c *Cache) Apply(node uint32, indices []uint64) error {
	return c.ApplyCapture(node, indices, nil)
}

// ApplyCapture is Apply with a pre-image hook: a non-nil pre (one slot
// long) receives the node's serialized sketch stack as it stood before the
// batch. The decoded group is in hand at that point either way, so the
// capture costs one encode and no device access — the engine uses it to
// keep the before-images its incremental queries diff against.
func (c *Cache) ApplyCapture(node uint32, indices []uint64, pre []byte) error {
	g := c.store.GroupOf(node)
	sh := c.shardOf(g)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := c.entryLocked(sh, g)
	if err != nil {
		return err
	}
	local := int(node) - g*c.store.NodesPerGroup()
	if pre != nil {
		e.slab.MarshalNode(local, pre)
	}
	e.slab.Apply(local, indices)
	e.dirty = true
	e.ref = true
	return nil
}

// Peek returns the decoded arena of group if it is resident, without
// filling on miss. The engine's query scan uses it to serve cached groups
// with zero device I/O; callers must treat the slab as read-only and only
// call Peek while the workers are quiescent.
func (c *Cache) Peek(group int) (*cubesketch.Slab, bool) {
	sh := c.shardOf(group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[group]; e != nil {
		e.ref = true
		return e.slab, true
	}
	return nil, false
}

// entryLocked returns group's entry, filling (and evicting) as needed.
// The caller holds sh.mu.
func (c *Cache) entryLocked(sh *cacheShard, group int) (*groupEntry, error) {
	if e := sh.entries[group]; e != nil {
		sh.hits++
		return e, nil
	}
	sh.misses++
	var slab *cubesketch.Slab
	if len(sh.ring) >= sh.maxEntries {
		victim, err := c.evictLocked(sh)
		if err != nil {
			return nil, err
		}
		slab = victim
	} else {
		c.spareMu.Lock()
		slab = c.spare
		c.spare = nil
		c.spareMu.Unlock()
		if slab == nil {
			slab = c.newSlab()
		}
	}
	start, count := c.store.GroupRange(group)
	buf := sh.fill[:count*c.store.SlotSize()]
	if err := c.store.ReadGroup(group, buf); err != nil {
		c.reclaim(slab)
		return nil, fmt.Errorf("diskstore: cache fill of group %d (nodes [%d,%d)): %w", group, start, int(start)+count, err)
	}
	if err := slab.UnmarshalNodes(0, count, buf); err != nil {
		c.reclaim(slab)
		return nil, fmt.Errorf("diskstore: cache decode of group %d: %w", group, err)
	}
	e := &groupEntry{group: group, count: count, slab: slab, ref: true}
	sh.entries[group] = e
	sh.ring = append(sh.ring, e)
	return e, nil
}

// reclaim parks an arena for the next fill after a failed load.
func (c *Cache) reclaim(slab *cubesketch.Slab) {
	c.spareMu.Lock()
	if c.spare == nil {
		c.spare = slab
	}
	c.spareMu.Unlock()
}

// evictLocked runs the CLOCK hand until a victim with a clear reference
// bit is found, writes it back if dirty, unlinks it, and returns its
// arena for reuse. The caller holds sh.mu.
func (c *Cache) evictLocked(sh *cacheShard) (*cubesketch.Slab, error) {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		if e.dirty {
			if err := c.writeBackLocked(sh, e); err != nil {
				return nil, err
			}
		}
		delete(sh.entries, e.group)
		last := len(sh.ring) - 1
		sh.ring[sh.hand] = sh.ring[last]
		sh.ring[last] = nil
		sh.ring = sh.ring[:last]
		sh.evictions++
		return e.slab, nil
	}
}

// writeBackLocked encodes entry e into the shard scratch and writes its
// group slot back with one coalesced device access, invoking the write
// barrier with the pre-image device bytes first. The caller holds sh.mu.
func (c *Cache) writeBackLocked(sh *cacheShard, e *groupEntry) error {
	start, count := c.store.GroupRange(e.group)
	buf := sh.fill[:count*c.store.SlotSize()]
	e.slab.MarshalNodes(0, e.count, buf)
	if wb := c.barrier.Load(); wb != nil && wb.NeedPreImage(start, count) {
		pre := sh.pre[:count*c.store.SlotSize()]
		if err := c.store.ReadGroup(e.group, pre); err != nil {
			return fmt.Errorf("diskstore: pre-image read of group %d: %w", e.group, err)
		}
		wb.Deposit(start, count, pre)
	}
	if err := c.store.WriteGroup(e.group, buf); err != nil {
		return fmt.Errorf("diskstore: write-back of group %d (nodes [%d,%d)): %w", e.group, start, int(start)+count, err)
	}
	e.dirty = false
	sh.writeBacks++
	return nil
}

// WriteBackAll flushes every dirty group to the device, keeping the
// entries resident (clean). Afterwards the device bytes are coherent with
// the cache — the precondition for direct store scans (checkpoint seal).
func (c *Cache) WriteBackAll() error {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.ring {
			if !e.dirty {
				continue
			}
			if err := c.writeBackLocked(sh, e); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Invalidate flushes every dirty group and then drops all entries, so the
// next touch of any group re-reads the device. Call it around operations
// that mutate the store directly (checkpoint merge).
func (c *Cache) Invalidate() error {
	if err := c.WriteBackAll(); err != nil {
		return err
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.entries)
		for j := range sh.ring {
			sh.ring[j] = nil
		}
		sh.ring = sh.ring[:0]
		sh.hand = 0
		sh.mu.Unlock()
	}
	return nil
}

// Stats aggregates the per-shard counters.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.WriteBacks += sh.writeBacks
		st.CachedGroups += len(sh.ring)
		sh.mu.Unlock()
	}
	st.CachedBytes = int64(st.CachedGroups) * c.slabBytes
	return st
}
