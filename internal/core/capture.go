package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// capture keeps, for each reader's cut, the bytes node v had at that cut,
// taken at v's first change after it. Sketches are linear, so "the state v
// had at cut c" is just v's slot bytes at c, and two readers need them: the
// delta query, whose baseline is the cached result's cut (base), and a
// checkpoint stream, full or delta, whose cut is its seal (sealCut). Every
// change to a slot is bracketed by begin and end — Engine.applyBatch
// around a batch apply, markChangedNode around an install, a merge or
// baseline adoption — and the caller fills the buffer begin hands back
// with v's stack as it stands before the change (the store does it from
// wherever the stack is at hand: the owner's slab, the decoded cache
// group). This is the one place that decides which bytes a reader sees
// for v at its cut, in both stores.
//
// When both readers want v's image at one change, they share one buffer:
// v then changed after neither cut, so its bytes at both are its current
// ones.
//
// One pool of slot-sized buffers and one byte budget serve both readers;
// the readers differ only in what happens when the budget runs out. A
// seal's capture waits — for a buffer the scanner frees, or for the
// scanner to pass the node's section, whose scan then no longer needs the
// image — so ingestion throttles to scan speed and the checkpoint stays
// exact. The baseline refuses and leaves the node imageless: its
// component re-solves from singletons, the price of a bounded footprint,
// not an error. In RAM the budget is one slot per node plus maxBase, so it
// never binds; out of core it is a quarter of the write-back cache
// (NewEngine).
//
// The baseline is also the dirty set. Every node's first change since the
// cached result's cut enters it, imaged or refused, so it lists exactly
// the nodes stamped after that cut (baseNodes), and the delta query reads
// them in O(dirty log dirty) where a stamp scan would cost O(V). Past
// maxBase nodes, one past the delta query's fallback threshold, it stops
// listing, and so imaging, and only notes the overflow: the next query
// runs from scratch anyway.
type capture struct {
	slot    int // bytes of one image
	budget  int // bytes of distinct buffers the readers may hold
	maxBase int // most nodes, and so images, the baseline lists

	mu sync.Mutex
	// cond is signalled when a scan frees buffers or captures a section, a
	// section is claimed, or a change in a claimed section ends.
	cond *sync.Cond
	// base maps each node first changed since the cached query result's
	// cut, unless the baseline refused it, to its bytes at that cut.
	// Written under mu by the change that takes the image; the delta query
	// reads it without mu while the workers are idle (it holds the quiesce
	// write lock), as only a concurrent scan, which reads it too, may run
	// then.
	base map[uint32][]byte
	// baseNodes lists every node first changed since that cut, imaged or
	// refused, in the order of their first changes, and baseOver notes
	// that more than maxBase did. Written and read like base.
	baseNodes []uint32
	baseOver  bool
	// sealed is the live checkpoint's side, if any: set and cleared under
	// mu, and loaded without it by begin's fast path.
	sealed atomic.Pointer[sealCut]
	free   [][]byte // buffers no reader holds, reused before allocating
	held   int      // distinct buffers the readers hold
	bufs   int      // buffers allocated and not dropped: held plus free
}

// sealCut is a live checkpoint's side of the capture: its plan, its
// images, and the section protocol that keeps its scan apart from the
// changes. A section is one run of the plan, a full checkpoint's tile or a
// delta's run of dirty nodes; a node in no run is not the seal's concern.
// A change is counted per section in inflight between begin and end, and
// the scanner claims a section before reading it: the claim waits for the
// section's changes in flight, and a change arriving at a claimed section
// waits for the section's capture, after which the section is no longer
// the seal's concern. So the scan never reads a slot while it changes, nor
// an image before it is filled.
type sealCut struct {
	plan     []nodeRun         // the checkpoint's sections; fixed once sealed
	images   map[uint32][]byte // node -> its bytes at the seal
	scanned  []bool            // per section: captured
	claimed  []bool            // per section: the scanner is reading it
	inflight []int             // per section: changes between begin and end
}

// section returns the index of the plan run holding node, or -1 when no
// run does: a binary search over the ascending runs.
func (s *sealCut) section(node uint32) int {
	i := sort.Search(len(s.plan), func(i int) bool { return s.plan[i].start > node }) - 1
	if i < 0 || node-s.plan[i].start >= uint32(s.plan[i].count) {
		return -1
	}
	return i
}

// init sizes the capture for n nodes of slot bytes, with the RAM budget.
func (c *capture) init(n uint32, slot int) {
	c.slot = slot
	c.maxBase = int(deltaQueryMaxDirtyFrac*float64(n)) + 1
	c.budget = (int(n) + c.maxBase) * slot
	c.base = make(map[uint32][]byte)
	c.cond = sync.NewCond(&c.mu)
}

// baseLimit is the most images the baseline can hold: maxBase, or fewer
// when the budget holds fewer.
func (c *capture) baseLimit() int { return min(c.maxBase, c.budget/c.slot) }

// begin is a change's entry into the capture, before node changes: base
// says whether the baseline wants the image (the change is the node's
// first since the cached result's cut). It returns the buffer the caller
// fills with the node's pre-change stack — nil when no reader takes an
// image — and the section the caller passes to end after the change (-1
// when no seal is concerned: none is live, or node is in none of its
// sections). A change the baseline does not want and no seal section
// holds takes no lock. While a seal wants the image and the budget is
// exhausted, or the node's section is claimed, it waits; it never waits
// holding a section in flight, so the scanner's claim always drains.
func (c *capture) begin(node uint32, base bool) (img []byte, sec int) {
	s, sec := c.sealed.Load(), -1
	if s != nil {
		sec = s.section(node)
	}
	if sec < 0 && !base {
		return nil, -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seal := false
	if sec >= 0 {
		for !s.scanned[sec] && (s.claimed[sec] || s.images[node] == nil && !c.fits()) {
			c.cond.Wait()
		}
		if s.scanned[sec] {
			sec = -1
		} else {
			s.inflight[sec]++
			seal = s.images[node] == nil
		}
	}
	base = base && c.list(node) && (seal || c.fits())
	if !seal && !base {
		return nil, sec
	}
	img = c.take()
	if seal {
		s.images[node] = img
	}
	if base {
		c.base[node] = img
	}
	return img, sec
}

// list enters node, at its first change since the cached result's cut,
// in the dirty set, and reports whether the baseline may still take its
// image: false once the set has overflowed. Caller holds mu.
func (c *capture) list(node uint32) bool {
	if len(c.baseNodes) >= c.maxBase {
		c.baseOver = true
		return false
	}
	c.baseNodes = append(c.baseNodes, node)
	return true
}

// dirty appends the nodes first changed since the cached result's cut to
// dst, in no order, and reports false instead when more than maxBase were.
// The caller holds the quiesce write lock with the workers idle.
func (c *capture) dirty(dst []uint32) ([]uint32, bool) {
	if c.baseOver {
		return dst, false
	}
	return append(dst, c.baseNodes...), true
}

// listedCount returns how many nodes were first changed since the cached
// result's cut, and false when more than maxBase were. Safe concurrently
// with changes.
func (c *capture) listedCount() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.baseNodes), !c.baseOver
}

// end ends what begin began; sec < 0 is a no-op.
func (c *capture) end(sec int) {
	if sec < 0 {
		return
	}
	c.mu.Lock()
	// After finish the seal is gone and its sections no longer count.
	if s := c.sealed.Load(); s != nil {
		if s.inflight[sec]--; s.inflight[sec] == 0 && s.claimed[sec] {
			c.cond.Broadcast()
		}
	}
	c.mu.Unlock()
}

// adopt lists node in the dirty set and, when image is set, registers a
// baseline image for it, returning its buffer for the caller to fill with
// the bytes the adopted baseline observed — nil when the baseline refuses
// or no image was asked for (the baseline's bytes could not be read), so
// the node is listed imageless. The bytes are not this engine's, so a live
// seal never shares them. The caller holds the quiesce write lock with the
// workers idle.
func (c *capture) adopt(node uint32, image bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.list(node) || !image || !c.fits() {
		return nil
	}
	img := c.take()
	c.base[node] = img
	return img
}

// releaseBase empties the baseline — a new cached result, or an adopted
// one, supersedes its cut — keeping the image buffers for the next
// captures, except one a live seal still shares. It walks the listed
// nodes, which every image belongs to, not the map, whose table keeps the
// size of its largest baseline.
// The caller holds the quiesce write lock with the workers idle, and no
// query session reading the images is still running.
func (c *capture) releaseBase() {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sealed.Load()
	for _, node := range c.baseNodes {
		if img, ok := c.base[node]; ok {
			if s == nil || !sameBuf(img, s.images[node]) {
				c.put(img)
			}
			delete(c.base, node)
		}
	}
	c.baseNodes, c.baseOver = c.baseNodes[:0], false
	c.trim()
}

// seal installs a checkpoint's side over the sections of plan: from now on
// each planned node's first change ahead of its section's scan takes its
// image. The caller holds the quiesce write lock with the workers idle,
// after a flush, so the store holds the cut.
func (c *capture) seal(plan []nodeRun) {
	c.mu.Lock()
	c.sealed.Store(&sealCut{
		plan:     plan,
		images:   make(map[uint32][]byte),
		scanned:  make([]bool, len(plan)),
		claimed:  make([]bool, len(plan)),
		inflight: make([]int, len(plan)),
	})
	c.mu.Unlock()
}

// claim reserves section sec for the scanner: changes arriving from now on
// wait in begin, and claim returns once the ones already between begin
// and end have left, so the scanner reads the section race-free until it
// captures it.
func (c *capture) claim(sec int) {
	c.mu.Lock()
	s := c.sealed.Load()
	s.claimed[sec] = true
	for s.inflight[sec] > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// substitute marks section sec scanned and puts the seal's images of its
// nodes over what the scanner read into payload, which is then the seal's
// cut; from here on changes to the section take no seal image.
func (c *capture) substitute(sec int, payload []byte) {
	c.mu.Lock()
	s := c.sealed.Load()
	s.scanned[sec] = true
	run := s.plan[sec]
	for j := 0; j < run.count && len(s.images) > 0; j++ {
		node := run.start + uint32(j)
		if img := s.images[node]; img != nil {
			copy(payload[j*c.slot:], img)
			delete(s.images, node)
			if !sameBuf(img, c.base[node]) {
				c.put(img)
			}
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish retires the seal: every section counts as scanned, so changes
// waiting in begin wake even when the stream aborted before scanning them,
// and its images go back to the pool, which shrinks to what the baseline
// can use.
func (c *capture) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sealed.Load()
	for i := range s.scanned {
		s.scanned[i] = true
	}
	for node, img := range s.images {
		if !sameBuf(img, c.base[node]) {
			c.put(img)
		}
	}
	c.sealed.Store(nil)
	c.trim()
	c.cond.Broadcast()
}

// bytes is what the capture holds in RAM: every buffer allocated and not
// dropped, held by a reader or pooled.
func (c *capture) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.bufs) * int64(c.slot)
}

// fits reports whether one more buffer fits the budget. Caller holds mu.
func (c *capture) fits() bool { return (c.held+1)*c.slot <= c.budget }

// take hands out a buffer, a pooled one when there is one. Caller holds mu.
func (c *capture) take() []byte {
	c.held++
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return b
	}
	c.bufs++
	return make([]byte, c.slot)
}

// put returns a buffer no reader holds any more to the pool. Caller holds mu.
func (c *capture) put(b []byte) {
	c.held--
	c.free = append(c.free, b)
}

// trim drops pooled buffers beyond what the baseline alone can hold once
// no seal is live: a seal's buffers serve only its stream, while without
// the pool every query cycle would allocate, zero and discard a buffer per
// first-changed node. Caller holds mu.
func (c *capture) trim() {
	if c.sealed.Load() != nil {
		return
	}
	for n := len(c.free); n > 0 && c.bufs > max(c.held, c.baseLimit()); n-- {
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.bufs--
	}
}

// sameBuf reports whether b is buffer a (b may be nil).
func sameBuf(a, b []byte) bool { return b != nil && &a[0] == &b[0] }
