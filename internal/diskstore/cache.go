package diskstore

import (
	"fmt"
	"sync"

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
// the device bytes stale by design. Whatever writes the store directly
// must write only groups that are not resident, or Invalidate after: the
// engine's query pass, which applies buffered batches to the slots of the
// non-resident groups it reads and writes them back while no batch
// applies through the cache, and merges and installs, which invalidate. A
// reader that scans the device while batches apply (a checkpoint stream)
// takes each node's pre-change bytes at apply instead (ApplyCapture, or
// the writer's own copy of the slot).
type Cache struct {
	store     *Store
	newSlab   func() *cubesketch.Slab
	slabBytes int64
	shards    []cacheShard
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

	hits, misses, evictions, writeBacks uint64
}

// NewCache builds a write-back cache over store. Fills allocate arenas
// until the budget is reached; from then on they reuse evicted ones, so
// the apply path allocates nothing once the cache is warm.
func NewCache(store *Store, cfg CacheConfig) *Cache {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > store.NumGroups() {
		cfg.Shards = store.NumGroups()
	}
	c := &Cache{
		store:     store,
		newSlab:   cfg.NewSlab,
		slabBytes: int64(cfg.NewSlab().Bytes()),
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
		}
	}
	return c
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
// keep the images its delta queries diff against and its checkpoint
// streams substitute.
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
	var err error
	if len(sh.ring) < sh.maxEntries {
		slab = c.newSlab()
	} else if slab, err = c.evictLocked(sh); err != nil {
		return nil, err
	}
	start, count := c.store.GroupRange(group)
	buf := sh.fill[:count*c.store.SlotSize()]
	if err := c.store.ReadGroup(group, buf); err != nil {
		return nil, fmt.Errorf("diskstore: cache fill of group %d (nodes [%d,%d)): %w", group, start, int(start)+count, err)
	}
	if err := slab.UnmarshalNodes(0, count, buf); err != nil {
		return nil, fmt.Errorf("diskstore: cache decode of group %d: %w", group, err)
	}
	e := &groupEntry{group: group, count: count, slab: slab, ref: true}
	sh.entries[group] = e
	sh.ring = append(sh.ring, e)
	return e, nil
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
// group slot back with one coalesced device access. The caller holds
// sh.mu.
func (c *Cache) writeBackLocked(sh *cacheShard, e *groupEntry) error {
	start, count := c.store.GroupRange(e.group)
	buf := sh.fill[:count*c.store.SlotSize()]
	e.slab.MarshalNodes(0, e.count, buf)
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
