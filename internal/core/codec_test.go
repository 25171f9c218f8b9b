package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphzeppelin/internal/stream"
)

// ckptLayout is the byte map of one checkpoint stream, read off its own
// header and section headers — so tests that damage a particular byte
// find it wherever the meta blob pushed it.
type ckptLayout struct {
	metaOff   int          // first byte of the meta blob (the chain envelope)
	sections  []sectionOff // the sections in stream order
	footerOff int          // first footer entry; the stream ends footerTrailerLen past the entries
}

// sectionOff is one section of a stream: its node run and the byte offset
// of its header.
type sectionOff struct {
	start uint32
	count int
	off   int
}

func layoutOf(t testing.TB, b []byte) ckptLayout {
	t.Helper()
	l := ckptLayout{metaOff: 4 + checkpointHeaderLen}
	n := int(binary.LittleEndian.Uint32(b[4+28:]))
	off := l.metaOff + int(binary.LittleEndian.Uint32(b[4+40:]))
	for i := 0; i < n; i++ {
		run := sectionOff{
			start: binary.LittleEndian.Uint32(b[off:]),
			count: int(binary.LittleEndian.Uint32(b[off+4:])),
			off:   off,
		}
		l.sections = append(l.sections, run)
		off += sectionHeaderLen + int(binary.LittleEndian.Uint64(b[off+8:]))
	}
	l.footerOff = off
	if want := off + n*footerEntryLen + footerTrailerLen; want != len(b) {
		t.Fatalf("stream is %d bytes, its headers describe %d", len(b), want)
	}
	return l
}

// rawSlots returns the engine's sketch state as serialized slots, without
// sealing (a seal would advance the chain the test is probing).
func rawSlots(t testing.TB, e *Engine) []byte {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if err := e.sketches.flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, int(e.cfg.NumNodes)*e.slotSize)
	if err := e.sketches.readSlots(0, int(e.cfg.NumNodes), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// craftedCheckpoint is a structurally valid checkpoint that claims
// numNodes nodes in one section and holds none of them: header, envelope
// and footer agree with each other, only the file's size gives it away.
func craftedCheckpoint(numNodes uint32) []byte {
	meta := encodeMetaEnvelope(7, 1, 0, 0, nil)
	cfg, _ := Config{NumNodes: numNodes}.withDefaults()
	b := append([]byte(nil), checkpointMagic[:]...)
	var hdr [checkpointHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], numNodes)
	binary.LittleEndian.PutUint64(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cfg.Columns))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(cfg.Rounds))
	binary.LittleEndian.PutUint32(hdr[28:], 1)
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(meta)))
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(meta, crcTable))
	b = append(append(b, hdr[:]...), meta...)
	body := uint64(len(b))
	b = appendFooterEntry(b, 0, int(numNodes), body)
	return appendFooterTrailer(b, body, 1)
}

// TestOpenCheckpointChecksSizeBeforeAllocating: the footer-driven restore
// sizes the engine from the header, so the header's claim must be checked
// against the file's size first. A 124-byte file claiming 8192 nodes used
// to allocate a 266 MiB engine before its first section read failed.
func TestOpenCheckpointChecksSizeBeforeAllocating(t *testing.T) {
	crafted := craftedCheckpoint(8192)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readCheckpointAt(bytes.NewReader(crafted), int64(len(crafted)), Config{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("crafted %d-byte checkpoint: err = %v, want ErrCorruptCheckpoint", len(crafted), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(crafted), grew)
	}

	src, err := NewEngine(Config{NumNodes: 48, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, eg := range randomEdges(48, 100, 7, 8) {
		mustUpdate(t, src, eg.U, eg.V)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for name, b := range map[string][]byte{
		"one byte appended": append(append([]byte(nil), valid...), 0),
		"one byte removed":  valid[:len(valid)-1],
	} {
		path := filepath.Join(t.TempDir(), "resized.gze")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, Config{}); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
	back, err := readCheckpointAt(bytes.NewReader(valid), int64(len(valid)), Config{})
	if err != nil {
		t.Fatalf("intact file: %v", err)
	}
	back.Close()
}

// TestStreamReadersVerifyFooter flips every footer byte of a valid full
// and a valid delta stream: each streaming consumer must refuse it — a
// stream that restores must also open from a file — and none may move its
// position.
func TestStreamReadersVerifyFooter(t *testing.T) {
	src, full, delta := deltaChainFixture(t)

	merged, err := NewEngine(Config{NumNodes: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	mustUpdate(t, merged, 1, 2)
	if err := merged.Drain(); err != nil {
		t.Fatal(err)
	}
	updates, epoch := merged.Stats().Updates, merged.epoch.Load()
	for i := layoutOf(t, full).footerOff; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] ^= 0xff
		if e, err := ReadCheckpoint(bytes.NewReader(bad), Config{}); !errors.Is(err, ErrCorruptCheckpoint) {
			if e != nil {
				e.Close()
			}
			t.Fatalf("restore with footer byte %d flipped: err = %v, want ErrCorruptCheckpoint", i, err)
		}
		if err := merged.MergeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("merge with footer byte %d flipped: err = %v, want ErrCorruptCheckpoint", i, err)
		}
		if u, ep := merged.Stats().Updates, merged.epoch.Load(); u != updates || ep != epoch {
			t.Fatalf("refused merge (footer byte %d) moved updates %d→%d, epoch %d→%d", i, updates, u, epoch, ep)
		}
	}

	dst := restoreConsumer(t, full)
	baseID, baseUpdates, state := dst.Stats().LastCheckpointID, dst.Stats().Updates, rawSlots(t, dst)
	for i := layoutOf(t, delta).footerOff; i < len(delta); i++ {
		bad := append([]byte(nil), delta...)
		bad[i] ^= 0xff
		if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("apply with footer byte %d flipped: err = %v, want ErrCorruptCheckpoint", i, err)
		}
		if id, u := dst.Stats().LastCheckpointID, dst.Stats().Updates; id != baseID || u != baseUpdates {
			t.Fatalf("refused apply (footer byte %d) moved the chain to %d, updates to %d", i, id, u)
		}
	}
	if !bytes.Equal(rawSlots(t, dst), state) {
		t.Fatal("refused applies changed the consumer's sketches")
	}
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta)); err != nil {
		t.Fatalf("intact apply after the refusals: %v", err)
	}
	if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
		t.Fatal("consumer diverged from producer")
	}
}

// TestFullIsDeltaWithEverythingDirty pins the codec's one idea over a
// table of dirty sets, in RAM and out of core: a delta's sections are the
// dirty runs cut at the full tiling's boundaries, Size() is exact, base +
// delta ≡ tip — and when every node is dirty the delta IS the same cut's
// full checkpoint, byte for byte, apart from the envelope's base fields.
func TestFullIsDeltaWithEverythingDirty(t *testing.T) {
	const n = 64 // two shards → the full tiling is [0,32) [32,64)
	span := func(lo, hi uint32) (ids []uint32) {
		for v := lo; v < hi; v++ {
			ids = append(ids, v)
		}
		return ids
	}
	cases := []struct {
		name  string
		dirty []uint32
		want  []nodeRun // start, count
	}{
		{"none", nil, nil},
		{"one node", []uint32{17}, []nodeRun{{start: 17, count: 1}}},
		{"run across a section boundary", span(29, 36), []nodeRun{{start: 29, count: 3}, {start: 32, count: 4}}},
		{"two runs around one clean node", append(span(4, 9), span(10, 13)...), []nodeRun{{start: 4, count: 5}, {start: 10, count: 3}}},
		{"every node", span(0, n), []nodeRun{{start: 0, count: 32}, {start: 32, count: 32}}},
	}
	for _, disk := range []bool{false, true} {
		for _, tc := range cases {
			name := "ram/" + tc.name
			if disk {
				name = "disk/" + tc.name
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{NumNodes: n, Seed: 19, Shards: 2, DeltaCheckpointThreshold: 1,
					SketchesOnDisk: disk, NodesPerGroup: 4}
				src, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				for _, eg := range randomEdges(n, 150, 3, uint64(len(tc.dirty))) {
					mustUpdate(t, src, eg.U, eg.V)
				}
				var base bytes.Buffer
				if err := src.WriteCheckpoint(&base); err != nil {
					t.Fatal(err)
				}
				baseID := src.Stats().LastCheckpointID
				// Two consumers of the base: dst applies the delta; twin
				// continues the same lineage beside src, so its next full
				// seal is the cut the delta describes, under the same id.
				restore := func() *Engine {
					e, err := ReadCheckpoint(bytes.NewReader(base.Bytes()), cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { e.Close() })
					return e
				}
				dst, twin := restore(), restore()

				// Dirty exactly tc.dirty: a path through the set touches
				// each member and nothing else; a lone node has no edge
				// inside the set, so it is marked changed by hand.
				for _, e := range []*Engine{src, twin} {
					for i := 1; i < len(tc.dirty); i++ {
						mustUpdate(t, e, tc.dirty[i-1], tc.dirty[i])
					}
					if len(tc.dirty) == 1 {
						e.quiesce.Lock()
						if err := e.drainLocked(); err != nil {
							t.Fatal(err)
						}
						e.markChangedNode(tc.dirty[0], nil) // no query ran: no image is wanted
						e.quiesce.Unlock()
					}
				}

				cs, err := src.SealCheckpointSince(baseID)
				if err != nil {
					t.Fatal(err)
				}
				var delta bytes.Buffer
				err = cs.StreamTo(&delta)
				isDelta, size, nodes := cs.IsDelta(), cs.Size(), cs.Nodes()
				cs.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !isDelta || nodes != len(tc.dirty) {
					t.Fatalf("sealed delta=%v over %d nodes, want a delta over %d", isDelta, nodes, len(tc.dirty))
				}
				if size != int64(delta.Len()) {
					t.Fatalf("Size() = %d, stream is %d bytes", size, delta.Len())
				}
				got := layoutOf(t, delta.Bytes()).sections
				if len(got) != len(tc.want) {
					t.Fatalf("sections %v, want %v", got, tc.want)
				}
				for i, run := range got {
					if run.start != tc.want[i].start || run.count != tc.want[i].count {
						t.Fatalf("section %d is [%d,+%d), want [%d,+%d)", i, run.start, run.count, tc.want[i].start, tc.want[i].count)
					}
				}

				if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(delta.Bytes())); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if len(tc.dirty) == n {
					var full bytes.Buffer
					if err := twin.WriteCheckpoint(&full); err != nil {
						t.Fatal(err)
					}
					d, f := delta.Bytes(), full.Bytes()
					if len(d) != len(f) {
						t.Fatalf("all-dirty delta is %d bytes, the full checkpoint %d", len(d), len(f))
					}
					env := layoutOf(t, d).metaOff
					for i := range d {
						inBaseFields := i >= env+20 && i < env+36 // envelope baseID, baseLSN
						inMetaCRC := i >= 4+44 && i < 4+48        // header metaCRC covers them
						if d[i] != f[i] && !inBaseFields && !inMetaCRC {
							t.Fatalf("all-dirty delta differs from the full checkpoint at byte %d", i)
						}
					}
				}
				if !bytes.Equal(checkpointBytes(t, src), checkpointBytes(t, dst)) {
					t.Fatal("base + delta differs from the tip")
				}
			})
		}
	}
}

// fuzzTyped reports whether err is one of the errors the checkpoint
// decoders promise for bytes they did not write.
func fuzzTyped(err error) bool {
	for _, want := range []error{ErrCorruptCheckpoint, ErrIncompatibleCheckpoint, ErrDeltaCheckpoint,
		ErrCheckpointChain, ErrOutOfRange, io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzCheckpointDecode drives the one checkpoint reader through its
// consumers on a fixed 64-node geometry — delta apply, merge, file
// restore, stream restore, and the reader over the sub-range [32, 64) a
// coordinator reads a worker's bytes as, then installs: whatever the
// bytes, each returns a typed error or succeeds, never panics, allocates
// in proportion to the input rather than to what its header claims, and a
// refused delta or range leaves its consumer exactly where it was. A
// stream has no length to check a header against, so the stream restore
// sizes its engine by the header's claim: it runs on inputs that claim
// the fuzz geometry (or fail before a header is read).
func FuzzCheckpointDecode(f *testing.F) {
	cfg := Config{NumNodes: 64, Seed: 77}
	src, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer src.Close()
	ingest := func(edges []stream.Edge) {
		for _, eg := range edges {
			if err := src.InsertEdge(eg.U, eg.V); err != nil {
				f.Fatal(err)
			}
		}
	}
	ingest(randomEdges(64, 120, 21, 22))
	var full, delta bytes.Buffer
	if err := src.WriteCheckpoint(&full); err != nil {
		f.Fatal(err)
	}
	ingest(randomEdges(8, 5, 23, 24))
	if isDelta, err := src.WriteDeltaCheckpoint(&delta, src.Stats().LastCheckpointID); err != nil || !isDelta {
		f.Fatalf("delta seed: delta=%v err=%v", isDelta, err)
	}
	f.Add(full.Bytes())
	f.Add(delta.Bytes())
	f.Add(craftedCheckpoint(8192))
	// A range engine's full and delta checkpoints: what a worker of
	// [32, 64) ships.
	part, err := NewEngine(Config{NumNodes: 64, Seed: 77, Range: NodeRange{Lo: 32, Hi: 64}})
	if err != nil {
		f.Fatal(err)
	}
	defer part.Close()
	var partFull, partDelta bytes.Buffer
	if err := part.InsertEdges([]stream.Edge{{U: 3, V: 40}, {U: 40, V: 41}, {U: 50, V: 63}}); err != nil {
		f.Fatal(err)
	}
	if err := part.WriteCheckpoint(&partFull); err != nil {
		f.Fatal(err)
	}
	if err := part.InsertEdge(33, 34); err != nil {
		f.Fatal(err)
	}
	if isDelta, err := part.WriteDeltaCheckpoint(&partDelta, part.Stats().LastCheckpointID); err != nil || !isDelta {
		f.Fatalf("range delta seed: delta=%v err=%v", isDelta, err)
	}
	f.Add(partFull.Bytes())
	f.Add(partDelta.Bytes())
	claimsGeometry := func(data []byte) bool {
		h, _, err := readCheckpointHeader(bufio.NewReader(bytes.NewReader(data)))
		return err != nil || h.numNodes == src.cfg.NumNodes && h.columns == src.cfg.Columns && h.rounds == src.cfg.Rounds
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := ReadCheckpoint(bytes.NewReader(full.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		other, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		view, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		id, updates, state := dst.Stats().LastCheckpointID, dst.Stats().Updates, rawSlots(t, dst)
		viewState := rawSlots(t, view)
		streamed := claimsGeometry(data)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		applyErr := dst.ApplyDeltaCheckpoint(bytes.NewReader(data))
		mergeErr := other.MergeCheckpoint(bytes.NewReader(data))
		opened, openErr := readCheckpointAt(bytes.NewReader(data), int64(len(data)), Config{})
		var restored *Engine
		var restoreErr error
		if streamed {
			restored, restoreErr = ReadCheckpoint(bytes.NewReader(data), Config{})
		}
		cp, rangeErr := loadRange(view, bytes.NewReader(data), 32, 64)
		runtime.ReadMemStats(&after)
		for _, e := range []*Engine{opened, restored} {
			if e != nil {
				e.Close()
			}
		}

		for op, err := range map[string]error{"apply": applyErr, "merge": mergeErr, "open": openErr,
			"restore": restoreErr, "range": rangeErr} {
			if err != nil && !fuzzTyped(err) {
				t.Fatalf("%s: untyped error %v", op, err)
			}
		}
		if rangeErr != nil {
			if !bytes.Equal(rawSlots(t, view), viewState) {
				t.Fatal("refused range read changed the consumer's sketches")
			}
		} else if err := view.Install(cp); err != nil {
			t.Fatalf("install of a loaded range: %v", err)
		}
		// Each decoder at most a few copies of what it read, over a fixed
		// geometry of well under a MiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+8<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if applyErr != nil {
			if got := dst.Stats().LastCheckpointID; got != id {
				t.Fatalf("refused apply moved the chain %d→%d", id, got)
			}
			if got := dst.Stats().Updates; got != updates {
				t.Fatalf("refused apply moved the update count %d→%d", updates, got)
			}
			if !bytes.Equal(rawSlots(t, dst), state) {
				t.Fatal("refused apply changed the consumer's sketches")
			}
		}
	})
}

// TestDecodeErrorsAreTyped covers by hand the decoder inputs a mutator is
// unlikely to reach because they need a valid CRC: a well-framed section
// whose slot bytes are not a sketch of this geometry.
func TestDecodeErrorsAreTyped(t *testing.T) {
	_, full, delta := deltaChainFixture(t)
	reseal := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		sec := layoutOf(t, b).sections[0]
		payload := b[sec.off+sectionHeaderLen : sec.off+sectionHeaderLen+int(binary.LittleEndian.Uint64(b[sec.off+8:]))]
		payload[0] ^= 0xff // the first slot's vector-length field
		binary.LittleEndian.PutUint32(b[sec.off+16:], crc32.Checksum(payload, crcTable))
		return b
	}
	badFull, badDelta := reseal(full), reseal(delta)
	// Both placements: out of core a restore writes whole sections to the
	// store, so it must check the slots it never decodes.
	for _, cfg := range []Config{{}, {SketchesOnDisk: true}} {
		where := "in RAM"
		if cfg.SketchesOnDisk {
			where = "out of core"
		}
		if e, err := ReadCheckpoint(bytes.NewReader(badFull), cfg); !errors.Is(err, ErrCorruptCheckpoint) {
			if e != nil {
				e.Close()
			}
			t.Fatalf("restore of a foreign slot %s: err = %v, want ErrCorruptCheckpoint", where, err)
		}
		if e, err := readCheckpointAt(bytes.NewReader(badFull), int64(len(badFull)), cfg); !errors.Is(err, ErrCorruptCheckpoint) {
			if e != nil {
				e.Close()
			}
			t.Fatalf("open of a foreign slot %s: err = %v, want ErrCorruptCheckpoint", where, err)
		}
	}
	dst := restoreConsumer(t, full)
	if err := dst.MergeCheckpoint(bytes.NewReader(badFull)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("merge of a foreign slot: err = %v, want ErrCorruptCheckpoint", err)
	}
	state := rawSlots(t, dst)
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(badDelta)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("apply of a foreign slot: err = %v, want ErrCorruptCheckpoint", err)
	}
	if !bytes.Equal(rawSlots(t, dst), state) {
		t.Fatal("refused apply changed the consumer's sketches")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(delta), Config{}); !errors.Is(err, ErrDeltaCheckpoint) {
		t.Fatalf("restore from a delta: err = %v, want ErrDeltaCheckpoint", err)
	}
	if err := dst.ApplyDeltaCheckpoint(bytes.NewReader(full)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("apply of a full checkpoint: err = %v, want ErrCorruptCheckpoint", err)
	}
	// A file written before the magic bump is refused, not misread.
	old := append([]byte(nil), full...)
	old[3]--
	if _, err := ReadCheckpoint(bytes.NewReader(old), Config{}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("previous magic: err = %v, want ErrCorruptCheckpoint", err)
	}
}
