package core

import (
	"cmp"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Delta checkpoints and the checkpoint chain. The stream layout is the one
// documented atop checkpoint.go; this file holds what makes a delta a
// delta: the chain envelope, the seal marks that plan one, and the delta
// apply.
//
// GZM1 chain envelope (40 bytes + user metadata), sealed as the meta blob
// of every checkpoint this engine writes:
//
//	magic    [4]byte "GZM1"
//	chainTag uint64 — random per-lineage token (Engine.chainTag)
//	ckptID   uint64 — the id this seal minted (the tip, for a delta)
//	baseID   uint64 — the base checkpoint id a delta chains onto; 0 marks
//	  a full checkpoint
//	baseLSN  uint64 — the WAL LSN the base covered (0 full)
//	userLen  uint32, then userLen bytes of caller metadata
var (
	metaEnvelopeMagic = [4]byte{'G', 'Z', 'M', '1'}
)

const (
	metaEnvelopeLen = 40
	// maxSealMarks bounds the seal marks an engine keeps, 24 bytes each: a
	// delta base may lag the tip by this many seals, whatever readers took
	// them, before the engine falls back to a full checkpoint.
	maxSealMarks = 4096
)

// ErrDeltaCheckpoint is returned when a delta checkpoint stream is handed
// to an operation that needs a self-contained checkpoint (restore, merge):
// a delta only has meaning applied on top of its exact base state.
var ErrDeltaCheckpoint = errors.New("core: delta checkpoint requires its base")

// ErrCheckpointChain is returned by ApplyDeltaCheckpoint when the delta
// does not chain onto this engine's current state: wrong lineage (chain
// tag), wrong base id (stale or out-of-order delta), or wrong base WAL
// position. The consumer should fall back to a full checkpoint pull.
var ErrCheckpointChain = errors.New("core: delta checkpoint does not chain onto current state")

// newChainTag mints the random per-lineage token that scopes checkpoint
// chain ids: ids are small counters, so two engine incarnations (a worker
// before and after a stateless restart, say) can mint the same id for
// different states — the 2^-64 tag collision probability is what makes the
// (tag, id, lsn) chain check sound across restarts.
func newChainTag() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("core: reading random chain tag: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// sealMark is what the engine keeps of one seal: the id it minted, the WAL
// position it covered, and the cut it took. A delta against base b ships
// the nodes stamped after b's cut.
type sealMark struct {
	id, lsn, cut uint64
}

// mintSealID advances the checkpoint chain at seal time: it takes a cut,
// records the seal's mark — dropping the oldest once maxSealMarks are held —
// and publishes the new state id and covered LSN. Caller holds ckptMu and
// the quiesce write lock with the workers idle.
func (e *Engine) mintSealID(lsn uint64) uint64 {
	id := e.ckptSeq.Load() + 1
	e.seals = append(e.seals, sealMark{id: id, lsn: lsn, cut: e.cut.Add(1)})
	if len(e.seals) > maxSealMarks {
		e.seals = e.seals[1:]
	}
	e.ckptSeq.Store(id)
	e.ckptLSN.Store(lsn)
	return id
}

// planDelta decides whether the seal minting newID can ship as a delta
// against baseID, and if so returns the sorted ids of the nodes changed
// since that seal and the WAL LSN the base covered. It refuses when deltas
// are disabled, the base is unknown (not this lineage's, or older than the
// oldest mark held), or the changed fraction exceeds
// Config.DeltaCheckpointThreshold — the caller then seals a full
// checkpoint, which is always a valid answer. Caller holds ckptMu and the
// quiesce write lock; mintSealID has already recorded newID's mark.
func (e *Engine) planDelta(baseID, newID uint64) ([]uint32, uint64, bool) {
	thr := e.cfg.DeltaCheckpointThreshold
	if baseID == 0 || thr < 0 || baseID >= newID {
		return nil, 0, false
	}
	i, found := slices.BinarySearchFunc(e.seals, baseID, func(m sealMark, id uint64) int {
		return cmp.Compare(m.id, id)
	})
	if !found {
		return nil, 0, false
	}
	ids := e.changedSince(e.seals[i].cut, nil)
	if float64(len(ids)) > thr*float64(e.n) {
		return nil, 0, false
	}
	return ids, e.seals[i].lsn, true
}

// metaEnvelope is the decoded GZM1 chain envelope of a checkpoint's meta
// blob.
type metaEnvelope struct {
	chainTag uint64
	ckptID   uint64
	baseID   uint64
	baseLSN  uint64
	user     []byte
}

// encodeMetaEnvelope seals the chain identity and the caller metadata into
// one meta blob (the layout documented atop this file).
func encodeMetaEnvelope(tag, ckptID, baseID, baseLSN uint64, user []byte) []byte {
	buf := make([]byte, metaEnvelopeLen+len(user))
	copy(buf[0:4], metaEnvelopeMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], tag)
	binary.LittleEndian.PutUint64(buf[12:], ckptID)
	binary.LittleEndian.PutUint64(buf[20:], baseID)
	binary.LittleEndian.PutUint64(buf[28:], baseLSN)
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(user)))
	copy(buf[metaEnvelopeLen:], user)
	return buf
}

// parseMetaEnvelope decodes a meta blob; ok is false when it is not a
// well-formed envelope (every seal mints an id ≥ 1, and a delta's base
// precedes its tip).
func parseMetaEnvelope(meta []byte) (env metaEnvelope, ok bool) {
	if len(meta) < metaEnvelopeLen || [4]byte(meta[0:4]) != metaEnvelopeMagic ||
		int(binary.LittleEndian.Uint32(meta[36:])) != len(meta)-metaEnvelopeLen {
		return metaEnvelope{}, false
	}
	env = metaEnvelope{
		chainTag: binary.LittleEndian.Uint64(meta[4:]),
		ckptID:   binary.LittleEndian.Uint64(meta[12:]),
		baseID:   binary.LittleEndian.Uint64(meta[20:]),
		baseLSN:  binary.LittleEndian.Uint64(meta[28:]),
	}
	if len(meta) > metaEnvelopeLen {
		env.user = meta[metaEnvelopeLen:]
	}
	return env, env.ckptID != 0 && env.baseID < env.ckptID
}

// adoptChainMeta moves the engine to the chain position of a checkpoint
// whose state it now holds exactly — a restore into a fresh engine, or an
// applied delta's tip: WAL coverage, user metadata and chain identity. The
// engine continues the writer's lineage, so deltas it later seals chain
// onto this state and deltas the writer sealed against it still apply.
// Earlier seal marks described paths from other states and are dropped:
// the adopted position is marked at a fresh cut, so the next seal's delta
// base must be this position or later — the only base a consumer of this
// state could hold anyway — and a delta against it carries only what
// changed after the adoption. The caller holds the quiesce write lock with
// the workers idle, or owns a fresh engine.
func (e *Engine) adoptChainMeta(h checkpointHeader, env metaEnvelope) {
	e.restoredWALPos = h.walLSN
	e.restoredMeta = env.user
	e.chainTag = env.chainTag
	e.ckptSeq.Store(env.ckptID)
	e.ckptLSN.Store(h.walLSN)
	e.seals = append(e.seals[:0], sealMark{id: env.ckptID, lsn: h.walLSN, cut: e.cut.Add(1)})
}

// markChangedNode stamps an out-of-band sketch mutation of local node (a
// checkpoint install or merge — anything bypassing the batch apply path)
// like an applied batch, through the same capture: the node's image is
// cur, its current slot bytes as the caller read them from the store,
// which the caller reads only when the baseline wants an image
// (wantsImage). A change of bytes cannot be logged, so a logged node's
// log converts into an image here. Must run BEFORE the mutation, holding
// ckptMu and the quiesce write lock with the workers idle, or on a fresh
// engine being restored — so no seal is live and only the baseline asks.
func (e *Engine) markChangedNode(node uint32, cur []byte) {
	op := e.capture.begin(node, e.wantsBase(node), nil)
	copy(op.img, cur)
	e.touch(node)
	e.capture.end(op, nil)
}

// WriteDeltaCheckpoint seals and streams a checkpoint that is a delta
// against this engine's earlier seal baseID when possible, falling back to
// a full checkpoint otherwise (see SealCheckpointSince for the fallback
// conditions). It reports which kind was written and never truncates the
// WAL — the log past the base is what recovers a lost or corrupt delta.
func (e *Engine) WriteDeltaCheckpoint(w io.Writer, baseID uint64) (delta bool, err error) {
	cs, err := e.SealCheckpointSince(baseID)
	if err != nil {
		return false, err
	}
	defer cs.Close()
	if err := cs.StreamTo(w); err != nil {
		return cs.IsDelta(), err
	}
	return cs.IsDelta(), nil
}

// ApplyDeltaCheckpoint advances this engine's state from the delta's base
// to its tip by installing the dirty nodes' serialized stacks. The engine
// must hold exactly the base state, enforced by the (chainTag, baseID,
// baseLSN) check against the current chain position — a stale, repeated,
// or out-of-order delta fails with ErrCheckpointChain before any state
// changes — and a corrupt or truncated stream is refused with the body
// fully read and verified before the first write. Past that point only a
// store fault can fail the install, and one that does leaves the engine
// poisoned with the sticky error (see Install). The replaced nodes whose
// bytes change are stamped as changed, so the next query on this engine
// re-solves exactly their components; later seals ship only what changes
// after the tip.
func (e *Engine) ApplyDeltaCheckpoint(r io.Reader) error {
	return e.exclusive(func() error {
		cp, err := e.ReadRange(r, e.lo, e.lo+e.n)
		if err != nil {
			return err
		}
		if !cp.IsDelta() {
			return fmt.Errorf("%w: ApplyDeltaCheckpoint needs a delta, got a full checkpoint", ErrCorruptCheckpoint)
		}
		if cur := e.chainPos(); cp.Base != cur {
			return fmt.Errorf("%w: delta (tag=%#x base=%d@lsn %d) vs engine (tag=%#x state=%d@lsn %d)",
				ErrCheckpointChain, cp.Base.Tag, cp.Base.ID, cp.Base.LSN, cur.Tag, cur.ID, cur.LSN)
		}
		if err := e.installLocked([]*Checkpoint{cp}); err != nil {
			return err
		}
		// The engine now holds exactly the tip state: adopt its position.
		e.updates.Store(cp.Updates)
		e.adoptChainMeta(cp.h, cp.env)
		return nil
	})
}

// ChainPos is one state of an engine lineage's checkpoint chain: the
// lineage's random tag, the checkpoint id the state was sealed (or
// restored) under, and the WAL position it covers. A delta chains onto a
// consumer's copy of a state only when its base is that exact position —
// ids alone repeat across the lives of a restarted worker, and a durable
// worker keeps its tag across them.
type ChainPos struct{ Tag, ID, LSN uint64 }

// chainPos returns the engine's current chain position.
func (e *Engine) chainPos() ChainPos {
	return ChainPos{e.chainTag, e.ckptSeq.Load(), e.ckptLSN.Load()}
}
