package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/cubesketch"
)

// capture keeps, for each reader's cut, what a node changed since that
// cut, taken at its changes after it. Two readers need it: the delta
// query, whose baseline is the cached result's cut (base), and a
// checkpoint stream, full or delta, whose cut is its seal (sealCut).
// Every change to a slot is bracketed by begin and end — Engine.change
// around a batch apply, markChangedNode around an install or a merge —
// and the caller fills the buffer begin hands back, if any, with the
// node's stack as it stands before the change (the store does it from
// wherever the stack is at hand: the owner's slab, the decoded cache
// group). This is the one place that decides what a reader sees for a
// node at its cut, in both stores. A leftover batch that a delta query
// logs before it applies (logBatch) is bracketed by beginSeal instead,
// which leaves the baseline alone.
//
// A seal takes an image: the node's slot bytes at its cut, copied at its
// first change after it. The baseline's entry for a node is its log, the
// indices applied to it since the cached result's cut, appended by the
// node's owner at each batch: sketches are linear, so a dirty node's diff
// since the cut, cur ⊕ prev, is the sketch of its log, and the delta
// query builds it from the log alone (query.go). A log is capped at
// logCap indices, where its query cost meets an image's. The delta query
// applies a log in each round its term is live, every index hashed once
// and written to a bucket per column, where an image's term moves each
// bucket of those rounds three times: copied at the capture, then XORed
// in from the live sketch and from the image. A one-round apply read 15 to
// 40 ns an index against 0.73 µs for an image's round (0.25 µs of its
// 3.0-3.6 µs copy, 0.48 µs of merges; V = 2,048, 2-vCPU Xeon), so a log of
// two indices per row, 46 at V = 2,048, costs what an image does in a term
// live in every round, and less in one that is not (the benchmark
// workloads' trickle terms are live 1.5 rounds). Its 8 B an index stay far
// below an image's slot. The entry is an image instead when the change is
// not a batch (an install or a merge changes bytes, not indices), when one
// batch would pass the cap, or when a seal takes the node's image at the
// same change: the node then changed after neither cut, so its bytes at
// both are its current ones, and the two share one buffer. A logged node
// converts once, at the change that would pass its cap or change its
// bytes: the image is its pre-change stack with the log toggled back out
// (end), which costs a toggle of 2 × rows indices in every round, about
// 40 µs at V = 2,048 (BenchmarkApplyNodeBinary), once per node and cut.
//
// One byte budget serves both readers: images count their slots, logs 8
// bytes an index. The readers differ only in what happens when it runs
// out. A seal's capture waits — for a buffer the scanner frees, or for
// the scanner to pass the node's section, whose scan then no longer needs
// the image — so ingestion throttles to scan speed and the checkpoint
// stays exact. Past the budget the baseline overflows, and the next query
// runs from scratch: the price of a bounded footprint, not an error. In
// RAM the budget is one slot per node plus maxBase, so it never binds;
// out of core it is a quarter of the write-back cache (NewEngine).
//
// The baseline is also the dirty set. Every node's first change since the
// cached result's cut enters it, so it lists exactly the nodes stamped
// after that cut (baseNodes), and the delta query reads them in O(dirty
// log dirty) where a stamp scan would cost O(V). It overflows wherever it
// would list a node without an entry: past maxBase nodes, one past the
// delta query's fallback threshold, where it stops listing; at an entry
// the budget cannot hold (begin); at a change or conversion that failed
// (end); and when a query decides to run from scratch (abandon). So while
// it has not overflowed, every listed node holds exactly one entry, a log
// or an image; once it has, the next query runs from scratch, and until
// the next cached result changes outside a seal take begin's fast path.
type capture struct {
	slot    int // bytes of one image
	logCap  int // most indices one log holds
	budget  int // bytes the readers may hold: distinct buffers, 8 per logged index
	maxBase int // most nodes the baseline lists

	// geometry toggles a converting log out of its image (end).
	geometry *cubesketch.Slab

	mu sync.Mutex
	// cond is signalled when a scan frees buffers or captures a section, a
	// section is claimed, or a change in a claimed section ends.
	cond *sync.Cond
	// base maps each node first changed since the cached query result's
	// cut whose entry is an image to its bytes at that cut, and logs holds,
	// by node, each logged node's indices applied since the cut (nil for
	// any other node). base is written under mu by the change that takes
	// the image; a node's log only by its owner (the worker, or a query
	// applying or logging a leftover batch while the workers are idle),
	// under mu.
	// The delta query reads both without mu while the workers are idle
	// (it holds the quiesce write lock), as only a concurrent scan, which
	// reads base too, may run then; begin reads the changing node's log
	// without mu, on its owner.
	base map[uint32][]byte
	logs [][]uint64
	// baseNodes lists every node first changed since that cut, in the
	// order of their first changes. Written and read like base.
	baseNodes []uint32
	// baseOver notes that the baseline overflowed: more than maxBase nodes
	// changed, a node's entry did not fit the budget or its change failed,
	// or a query runs from scratch and supersedes the cut (abandon). No
	// query reads the entries, so begin's fast path, which loads it without
	// mu, takes no lock and logs nothing. Set under mu, cleared by
	// releaseBase.
	baseOver atomic.Bool
	// sealed is the live checkpoint's side, if any: set and cleared under
	// mu, and loaded without it by begin's fast path.
	sealed atomic.Pointer[sealCut]
	free   [][]byte // buffers no reader holds, reused before allocating
	held   int      // distinct buffers the readers hold
	bufs   int      // buffers allocated and not dropped: held plus free
	// Log arrays no node holds, reused before allocating; the indices the
	// held logs hold (the budget's share); and the capacity of every log
	// array allocated and not dropped, held or pooled (the footprint's).
	logFree  [][]uint64
	logged   int
	logWords int
}

// captureOp is what begin decided for one change, for its caller and for
// end: the buffer the caller fills with the node's pre-change stack (nil
// when no reader takes one), the seal section the change is in flight in
// (-1 when none), and, when the change converts the node's log, the log
// and the baseline's new image, which end fills from img and toggles the
// log out of.
type captureOp struct {
	img  []byte
	sec  int
	conv []byte
	log  []uint64
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

// init sizes the capture for n nodes of slot bytes, with the RAM budget;
// geometry is a slab of the engine's shape.
func (c *capture) init(n uint32, slot int, geometry *cubesketch.Slab) {
	c.slot, c.logCap = slot, 2*geometry.Rows()
	c.maxBase = int(deltaQueryMaxDirtyFrac*float64(n)) + 1
	c.budget = (int(n) + c.maxBase) * slot
	c.geometry = geometry
	c.base = make(map[uint32][]byte)
	c.logs = make([][]uint64, n)
	c.cond = sync.NewCond(&c.mu)
}

// begin is a change's entry into the capture, before node changes: first
// says whether the change is the node's first since the cached result's
// cut with delta queries on (Engine.wantsBase), and indices are the
// batch's, nil for a change of bytes. It returns what the change takes
// (captureOp), to be passed to end after the change. A change that no
// seal section holds, to a node that is neither changing first nor
// logged, or while the baseline is overflowed, takes no lock. While a
// seal wants the image and the budget is exhausted, or the node's section
// is claimed, it waits; it never waits holding a section in flight, so
// the scanner's claim always drains.
func (c *capture) begin(node uint32, first bool, indices []uint64) captureOp {
	s, op := c.sealed.Load(), captureOp{sec: -1}
	if s != nil {
		op.sec = s.section(node)
	}
	log := c.logs[node]
	if op.sec < 0 && (!first && log == nil || c.baseOver.Load()) {
		return op
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seal := c.enter(s, &op, node)
	switch {
	case c.baseOver.Load() || !first && log == nil:
		// Listed already with an image, or the baseline has overflowed:
		// no query reads its entries.
	case first && !c.list(node):
		// The list overflows here.
	case indices != nil && len(log)+len(indices) <= c.logCap && !(first && seal) && c.fits(8*len(indices)):
		c.logs[node] = c.appendLog(log, indices)
	case log != nil && c.fits(c.slot-8*len(log)):
		// A change of bytes, or a batch past the cap: the log converts,
		// in the budget its indices leave.
		c.logs[node], c.logged = nil, c.logged-len(log)
		op.log, op.conv = log, c.take()
		c.base[node] = op.conv
		if op.img == nil {
			op.img = op.conv
		}
	case log == nil && seal:
		// The seal's image of a node first changed after both cuts is
		// the baseline's too.
		c.base[node] = op.img
	case log == nil && c.fits(c.slot):
		// A first change of bytes, or a first batch past the cap.
		op.img = c.take()
		c.base[node] = op.img
	default:
		// The node's entry does not fit the budget: the baseline
		// overflows rather than list a node it holds nothing for.
		c.baseOver.Store(true)
	}
	return op
}

// beginSeal is begin for a change the baseline holds already: a leftover
// batch a delta query logged (logBatch) and applies, or hands to its
// owner, after it. Only a live seal's side is left, and the change takes
// the seal's image as begin's would. Pass what it returns to end.
func (c *capture) beginSeal(node uint32) captureOp {
	s, op := c.sealed.Load(), captureOp{sec: -1}
	if s == nil {
		return op
	}
	if op.sec = s.section(node); op.sec < 0 {
		return op
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enter(s, &op, node)
	return op
}

// enter enters a change to node in its section of seal s, op.sec, when
// it has one: it waits while the section is claimed, or while the seal
// wants the node's image and the budget is exhausted; it leaves op.sec -1
// once the section is scanned, and otherwise counts the change in flight
// and takes the seal's image of node at its first change after the seal,
// into op.img. It reports whether it took that image. Caller holds mu.
func (c *capture) enter(s *sealCut, op *captureOp, node uint32) bool {
	if op.sec < 0 {
		return false
	}
	for !s.scanned[op.sec] && (s.claimed[op.sec] || s.images[node] == nil && !c.fits(c.slot)) {
		c.cond.Wait()
	}
	if s.scanned[op.sec] {
		op.sec = -1
		return false
	}
	s.inflight[op.sec]++
	if s.images[node] != nil {
		return false
	}
	op.img = c.take()
	s.images[node] = op.img
	return true
}

// logBatch is begin's baseline side alone, for a leftover batch that a
// delta query applies after its cut or not at all (logLeftovers): when
// the baseline logs the change — node is changing first since the cached
// result's cut, or is logged, and its log takes indices within the cap
// and the budget — it lists the node at its first change, appends indices
// to its log and reports true. Otherwise it records nothing, and the
// batch applies through begin as any other. Unlike begin it never shares
// a seal's image: the seal takes its own at the apply (beginSeal). The
// caller holds the quiesce write lock with the workers idle.
func (c *capture) logBatch(node uint32, first bool, indices []uint64) bool {
	log := c.logs[node]
	if !first && log == nil || c.baseOver.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(log)+len(indices) > c.logCap || !c.fits(8*len(indices)) || first && !c.list(node) {
		return false
	}
	c.logs[node] = c.appendLog(log, indices)
	return true
}

// list enters node, at its first change since the cached result's cut,
// in the dirty set, and reports whether the baseline may still take an
// entry for it: false once the set has overflowed. Caller holds mu.
func (c *capture) list(node uint32) bool {
	if len(c.baseNodes) >= c.maxBase {
		c.baseOver.Store(true)
		return false
	}
	c.baseNodes = append(c.baseNodes, node)
	return true
}

// dirty appends the nodes first changed since the cached result's cut to
// dst, in no order, and reports false instead when more than maxBase were.
// The caller holds the quiesce write lock with the workers idle.
func (c *capture) dirty(dst []uint32) ([]uint32, bool) {
	if c.baseOver.Load() {
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
	return len(c.baseNodes), !c.baseOver.Load()
}

// abandon marks the baseline overflowed ahead of a from-scratch query,
// whose result supersedes the cut: the changes its drain of leftover
// batches makes list and log nothing. The caller holds the quiesce write
// lock with the workers idle.
func (c *capture) abandon() {
	c.mu.Lock()
	c.baseOver.Store(true)
	c.mu.Unlock()
}

// end ends what begin began for a node, after the change, which failed when
// err is set: a conversion's image becomes the node's bytes at the cut,
// its pre-change stack (the caller filled img) with every logged index
// toggled back out, and a seal section in flight is left. The conversion's
// toggle runs without mu: until end returns, nothing else reads the
// image's bytes. A failed change, or a conversion whose toggle fails,
// leaves the node's entry short of what changed — its image may be
// unfilled, its log may hold indices the bytes never took — so the
// baseline overflows, and releaseBase pools the entry with the rest.
func (c *capture) end(op captureOp, err error) {
	if op.conv != nil && err == nil {
		if !sameBuf(op.conv, op.img) {
			copy(op.conv, op.img)
		}
		err = c.geometry.ApplyNodeBinary(op.conv, op.log)
	}
	if op.sec < 0 && op.log == nil && err == nil {
		return
	}
	c.mu.Lock()
	if op.log != nil {
		c.putLog(op.log)
	}
	if err != nil {
		c.baseOver.Store(true)
	}
	// After finish the seal is gone and its sections no longer count.
	if s := c.sealed.Load(); s != nil && op.sec >= 0 {
		if s.inflight[op.sec]--; s.inflight[op.sec] == 0 && s.claimed[op.sec] {
			c.cond.Broadcast()
		}
	}
	c.mu.Unlock()
}

// releaseBase empties the baseline — a new cached result supersedes its
// cut — pooling its logs and its image buffers, but
// one a live seal still shares, for the next captures. It walks the
// listed nodes, which every entry belongs to, not the map, whose table
// keeps the size of its largest baseline.
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
		if log := c.logs[node]; log != nil {
			c.logs[node], c.logged = nil, c.logged-len(log)
			c.putLog(log)
		}
	}
	c.baseNodes = c.baseNodes[:0]
	c.baseOver.Store(false)
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
// and its images go back to the pool, which trim then empties.
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

// bytes is what the capture holds in RAM: every buffer and log array
// allocated and not dropped, held by a reader or pooled. Caller holds mu.
func (c *capture) bytes() int { return c.bufs*c.slot + 8*c.logWords }

// memoryBytes is bytes for Stats, from any goroutine.
func (c *capture) memoryBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.bytes())
}

// fits reports whether extra more bytes fit the budget beside the buffers
// and logged indices the readers hold. Caller holds mu.
func (c *capture) fits(extra int) bool { return c.held*c.slot+8*c.logged+extra <= c.budget }

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

// appendLog appends indices to log, a node's log or nil for a new one
// (then a pooled array, when there is one). The caller has checked the
// cap. A log that outgrows its array moves to one of twice the capacity,
// or of the cap: a trickle's log is the size of its batch. Caller holds
// mu.
func (c *capture) appendLog(log, indices []uint64) []uint64 {
	if n := len(c.logFree); log == nil && n > 0 {
		log, c.logFree[n-1] = c.logFree[n-1], nil
		c.logFree = c.logFree[:n-1]
	}
	if need := len(log) + len(indices); need > cap(log) {
		grown := make([]uint64, len(log), min(max(need, 2*cap(log)), c.logCap))
		copy(grown, log)
		c.logWords += cap(grown) - cap(log)
		log = grown
	}
	c.logged += len(indices)
	return append(log, indices...)
}

// putLog pools a log array no node holds any more. Caller holds mu.
func (c *capture) putLog(log []uint64) { c.logFree = append(c.logFree, log[:0]) }

// trim empties the buffer pool and shrinks the log pool to maxBase arrays
// within the budget once no seal is live. A seal's buffers serve only its
// stream, and the baseline takes an image only where a log cannot serve,
// while a trickle's logs come back every query cycle: with their pool, a
// cycle's logs allocate nothing. Caller holds mu.
func (c *capture) trim() {
	if c.sealed.Load() != nil {
		return
	}
	clear(c.free)
	c.bufs, c.free = c.held, c.free[:0]
	for n := len(c.logFree); n > 0 && (n > c.maxBase || c.bytes() > c.budget); n-- {
		c.logWords -= cap(c.logFree[n-1])
		c.logFree[n-1] = nil
		c.logFree = c.logFree[:n-1]
	}
}

// sameBuf reports whether b is buffer a (b may be nil).
func sameBuf(a, b []byte) bool { return b != nil && &a[0] == &b[0] }
