package gzserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"graphzeppelin/internal/stream"
)

func TestFrameRoundTrip(t *testing.T) {
	ups := []stream.Update{
		{Edge: stream.Edge{U: 1, V: 2}, Type: stream.Insert},
		{Edge: stream.Edge{U: 3, V: 9}, Type: stream.Delete},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgIngest, EncodeIngest(42, ups)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgIngest {
		t.Fatalf("type = %v, want ingest", typ)
	}
	seq, got, err := DecodeIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(got) != 2 || got[0] != ups[0] || got[1] != ups[1] {
		t.Fatalf("decoded seq=%d ups=%v", seq, got)
	}
}

func TestFrameAppendMatchesWrite(t *testing.T) {
	payload := EncodeAck(7, true)
	var buf bytes.Buffer
	WriteFrame(&buf, MsgAck, payload)
	if got := AppendFrame(nil, MsgAck, payload); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("AppendFrame and WriteFrame disagree:\n%x\n%x", got, buf.Bytes())
	}
}

func TestFrameBadMagic(t *testing.T) {
	b := AppendFrame(nil, MsgAck, EncodeAck(1, true))
	b[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameVersionMismatch(t *testing.T) {
	b := AppendFrame(nil, MsgAck, EncodeAck(1, true))
	b[4] = WireVersion + 1
	_, _, err := ReadFrame(bytes.NewReader(b))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != WireVersion+1 || ve.Want != WireVersion {
		t.Fatalf("version error carries %+v", ve)
	}
}

func TestFrameReservedFlags(t *testing.T) {
	b := AppendFrame(nil, MsgAck, EncodeAck(1, true))
	b[6] = 0xff
	if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, MsgIngest, EncodeIngest(1, []stream.Update{{Edge: stream.Edge{U: 0, V: 1}}}))
	// Every proper prefix — inside the header and inside the payload —
	// must surface ErrTruncatedFrame, the mid-stream connection-drop
	// signature.
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut %d/%d: err = %v, want ErrTruncatedFrame", cut, len(full), err)
		}
	}
}

// TestFrameHostileLengthAllocatesLittle: a header that declares the 2^28
// payload cap and then ends costs what arrived, not what it declared, and
// still surfaces ErrTruncatedFrame; a payload over several of the reader's
// chunks round-trips, and one cut short inside them is truncated too.
func TestFrameHostileLengthAllocatesLittle(t *testing.T) {
	hostile := AppendFrame(nil, MsgIngest, nil)
	binary.LittleEndian.PutUint32(hostile[8:], maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("err = %v, want ErrTruncatedFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a header declaring %d bytes allocated %d before any payload arrived", maxFramePayload, grew)
	}

	ups := make([]stream.Update, 3*payloadChunk/stream.RecordSize)
	for i := range ups {
		ups[i] = stream.Update{Edge: stream.Edge{U: uint32(i), V: uint32(i + 1)}}
	}
	full := AppendFrame(nil, MsgIngest, EncodeIngest(5, ups))
	typ, payload, err := ReadFrame(bytes.NewReader(full))
	if err != nil || typ != MsgIngest || !bytes.Equal(payload, full[frameHeaderLen:]) {
		t.Fatalf("a %d-byte payload read back as %v, %d bytes, %v", len(full)-frameHeaderLen, typ, len(payload), err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("cut one byte short: err = %v, want ErrTruncatedFrame", err)
	}
}

// FuzzWireFrame drives arbitrary bytes through everything that reads what
// a peer sent: ReadFrame, then the payload decoder of the frame's type,
// and the same bytes as a GZG1 gate snapshot (seqGate.restore). Each
// succeeds or returns a typed error, never panics, and allocates in
// proportion to the input rather than to what a header declares.
func FuzzWireFrame(f *testing.F) {
	ups := []stream.Update{
		{Edge: stream.Edge{U: 1, V: 2}, Type: stream.Insert},
		{Edge: stream.Edge{U: 3, V: 9}, Type: stream.Delete},
	}
	f.Add(AppendFrame(nil, MsgIngest, EncodeIngest(42, ups)))
	f.Add(AppendFrame(nil, MsgAck, EncodeAck(42, true)))
	f.Add(AppendFrame(nil, MsgError, EncodeError(CodeBusy, "busy")))
	f.Add(AppendFrame(nil, MsgCheckpoint, []byte("GZC")))
	hostile := AppendFrame(nil, MsgIngest, nil)
	binary.LittleEndian.PutUint32(hostile[8:], maxFramePayload)
	f.Add(hostile)
	g := newSeqGate()
	for _, s := range []uint64{1, 2, 5, 8} {
		g.Claim(s)
		g.Commit(s)
	}
	f.Add(g.snapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, frameErr := ReadFrame(bytes.NewReader(data))
		if frameErr == nil {
			switch typ {
			case MsgIngest:
				_, _, frameErr = DecodeIngest(payload)
			case MsgAck:
				_, _, frameErr = DecodeAck(payload)
			case MsgError:
				_, frameErr = DecodeError(payload)
			}
		}
		gateErr := newSeqGate().restore(data)
		runtime.ReadMemStats(&after)
		for op, err := range map[string]error{"frame": frameErr, "gate": gateErr} {
			if err != nil && !wireTyped(err) {
				t.Fatalf("%s: untyped error %v", op, err)
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+4*payloadChunk {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
	})
}

// wireTyped reports whether err is one of the wire codec's typed errors.
func wireTyped(err error) bool {
	for _, want := range []error{ErrBadMagic, ErrVersionMismatch, ErrTruncatedFrame, ErrFrameTooLarge, ErrBadPayload} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func TestFrameTooLarge(t *testing.T) {
	b := AppendFrame(nil, MsgCheckpoint, nil)
	b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestIngestPayloadMalformed(t *testing.T) {
	// Header shorter than seq+count.
	if _, _, err := DecodeIngest(make([]byte, 5)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short header: err = %v", err)
	}
	// Declared count disagrees with body length.
	p := EncodeIngest(1, []stream.Update{{Edge: stream.Edge{U: 0, V: 1}}})
	if _, _, err := DecodeIngest(p[:len(p)-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("count mismatch: err = %v", err)
	}
	// Corrupt record type byte inside the batch.
	p = EncodeIngest(1, []stream.Update{{Edge: stream.Edge{U: 0, V: 1}}})
	p[ingestHeaderLen] = 7
	if _, _, err := DecodeIngest(p); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("corrupt record: err = %v", err)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgError, EncodeError(CodeBusy, "sequence 9 is being applied"))
	_, err := expectFrame(&buf, MsgAck)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBusy || !re.Retryable() {
		t.Fatalf("err = %v, want retryable CodeBusy RemoteError", err)
	}
	buf.Reset()
	WriteFrame(&buf, MsgError, EncodeError(CodeIncompatible, "seed mismatch"))
	_, err = expectFrame(&buf, MsgAck)
	if !errors.As(err, &re) || re.Retryable() {
		t.Fatalf("err = %v, want non-retryable RemoteError", err)
	}
}

func TestAckPayloadMalformed(t *testing.T) {
	if _, _, err := DecodeAck(make([]byte, 3)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
}

func TestWriteFrameHeaderStreamedPayload(t *testing.T) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte{0xAB}, 1000)
	if err := WriteFrameHeader(&buf, MsgCheckpoint, int64(len(body))); err != nil {
		t.Fatal(err)
	}
	buf.Write(body)
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgCheckpoint || !bytes.Equal(payload, body) {
		t.Fatalf("typ=%v err=%v len=%d", typ, err, len(payload))
	}
}

func TestFrameBodyReportsDrop(t *testing.T) {
	// A frameBody over a stream that ends early must surface
	// ErrTruncatedFrame, not a clean EOF.
	fb := &frameBody{r: io.NopCloser(bytes.NewReader(make([]byte, 10))), remaining: 64}
	_, err := io.ReadAll(fb)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("err = %v, want ErrTruncatedFrame", err)
	}
}

func TestPartitionerRange(t *testing.T) {
	p, err := NewRangePartitioner(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ⌈10/3⌉ = 4: ranges [0,4) [4,8) [8,10).
	wantRanges := [][2]uint32{{0, 4}, {4, 8}, {8, 10}}
	for i, want := range wantRanges {
		lo, hi := p.Range(i)
		if lo != want[0] || hi != want[1] {
			t.Fatalf("range %d = [%d,%d), want [%d,%d)", i, lo, hi, want[0], want[1])
		}
	}
	// Every node has one owner; an edge goes to both endpoints' owners.
	u := stream.Update{Edge: stream.Edge{U: 9, V: 2}}
	if i, j := p.Owners(u); i != 2 || j != 0 {
		t.Fatalf("edge (9,2) routed to %d and %d, want 2 and 0", i, j)
	}
	if got := p.Owner(9); got != 2 {
		t.Fatalf("node 9 owned by %d, want 2", got)
	}
}

func TestPartitionerSplit(t *testing.T) {
	p, _ := NewRangePartitioner(8, 2)
	ups := []stream.Update{
		{Edge: stream.Edge{U: 0, V: 5}}, // crosses: parts 0 and 1
		{Edge: stream.Edge{U: 6, V: 7}}, // part 1 only
		{Edge: stream.Edge{U: 1, V: 2}}, // part 0 only
	}
	parts := p.Split(ups, nil)
	if len(parts[0]) != 2 || len(parts[1]) != 2 {
		t.Fatalf("split sizes %d/%d, want 2/2", len(parts[0]), len(parts[1]))
	}
	if parts[0][0] != ups[0] || parts[0][1] != ups[2] || parts[1][0] != ups[0] || parts[1][1] != ups[1] {
		t.Fatalf("split %v, want the crossing edge in both parts in stream order", parts)
	}
}

func TestSeqGate(t *testing.T) {
	g := newSeqGate()
	if s := g.Claim(1); s != claimNew {
		t.Fatalf("first claim = %v", s)
	}
	if s := g.Claim(1); s != claimBusy {
		t.Fatalf("claim while in-flight = %v", s)
	}
	g.Commit(1)
	if s := g.Claim(1); s != claimDup {
		t.Fatalf("claim after commit = %v", s)
	}
	// Out-of-order commits compact into the low-water mark.
	g.Claim(3)
	g.Commit(3)
	if g.LowWater() != 1 {
		t.Fatalf("low water = %d, want 1 (2 missing)", g.LowWater())
	}
	g.Claim(2)
	g.Commit(2)
	if g.LowWater() != 3 {
		t.Fatalf("low water = %d, want 3", g.LowWater())
	}
	if s := g.Claim(2); s != claimDup {
		t.Fatalf("claim below low water = %v", s)
	}
	// A released claim is retryable.
	g.Claim(5)
	g.Release(5)
	if s := g.Claim(5); s != claimNew {
		t.Fatalf("claim after release = %v", s)
	}
}

func TestSeqGateAbandonedGapBounded(t *testing.T) {
	// Seq 1 is claimed, released, and never retried (its sender gave up);
	// seq 2 stays in flight across the whole pile-up. Without the
	// force-advance, every later committed seq would be pinned in the
	// applied map forever.
	g := newSeqGate()
	g.Claim(1)
	g.Release(1)
	g.Claim(2)
	last := uint64(maxSeqGap + 4)
	for seq := uint64(3); seq <= last; seq++ {
		if s := g.Claim(seq); s != claimNew {
			t.Fatalf("claim %d = %v", seq, s)
		}
		g.Commit(seq)
	}
	if g.LowWater() != last {
		t.Fatalf("low water = %d, want %d (abandoned gap not skipped)", g.LowWater(), last)
	}
	if n := len(g.applied); n != 0 {
		t.Fatalf("applied set holds %d entries after force-advance, want 0", n)
	}
	// The abandoned seq now reads as a duplicate: a pathologically late
	// retry is dropped rather than stalling the gate again.
	if s := g.Claim(1); s != claimDup {
		t.Fatalf("claim of abandoned seq = %v, want dup", s)
	}
	// The in-flight seq the mark jumped over commits harmlessly.
	g.Commit(2)
	if g.LowWater() != last || len(g.applied) != 0 {
		t.Fatalf("late commit of jumped seq: low=%d applied=%d", g.LowWater(), len(g.applied))
	}
	if s := g.Claim(2); s != claimDup {
		t.Fatalf("claim of jumped seq = %v, want dup", s)
	}
}

func TestCheckpointFrameCap(t *testing.T) {
	// Checkpoint frames are streamed, not allocated, so they get a larger
	// cap than the generic allocation-bounding one.
	var buf bytes.Buffer
	if err := WriteFrameHeader(&buf, MsgCheckpoint, maxFramePayload+1); err != nil {
		t.Fatalf("checkpoint header over generic cap: %v", err)
	}
	typ, length, err := ReadFrameHeader(&buf)
	if err != nil || typ != MsgCheckpoint || length != maxFramePayload+1 {
		t.Fatalf("read back typ=%v len=%d err=%v", typ, length, err)
	}
	// Generic frames keep the tight cap; checkpoints keep their own.
	if err := WriteFrameHeader(&buf, MsgIngest, maxFramePayload+1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ingest header over cap: err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrameHeader(&buf, MsgCheckpoint, maxCheckpointPayload+1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("checkpoint header over its cap: err = %v, want ErrFrameTooLarge", err)
	}
}
