package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randomUpdates(rng *rand.Rand, n int) []Update {
	ups := make([]Update, n)
	for i := range ups {
		ups[i] = Update{
			Type: UpdateType(rng.Uint64() % 2),
			Edge: Edge{U: uint32(rng.Uint64()), V: uint32(rng.Uint64())},
		}
	}
	return ups
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		ups := randomUpdates(rng, int(nRaw%500))
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 777, uint64(len(ups)))
		if err != nil {
			return false
		}
		for _, u := range ups {
			if err := w.Write(u); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		if r.Header().NumNodes != 777 || r.Header().Count != uint64(len(ups)) {
			return false
		}
		back, err := r.ReadAll()
		if err != nil || len(back) != len(ups) {
			return false
		}
		for i := range ups {
			if back[i] != ups[i] {
				return false
			}
		}
		_, err = r.Read()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Update{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush accepted short stream")
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE00000000000000"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 10, 2)
	w.Write(Update{Edge: Edge{U: 1, V: 2}})
	w.Write(Update{Edge: Edge{U: 3, V: 4}})
	w.Flush()
	full := buf.Bytes()

	r, err := NewReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record should survive: %v", err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestReaderCorruptTypeByte(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 10, 1)
	w.Write(Update{Edge: Edge{U: 1, V: 2}})
	w.Flush()
	raw := buf.Bytes()
	raw[16] = 9 // the record's type byte (after 4B magic + 12B header)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("corrupt type byte: err = %v, want ErrCorruptRecord", err)
	}
}

// TestReadAllHostileCount pins that ReadAll trusts no header count for
// its allocation: a bare header declaring MaxUint64/32 updates, with no
// record behind it, is a truncated stream, not a slice too large to make.
func TestReadAllHostileCount(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, "GZS1")
	binary.LittleEndian.PutUint32(hdr[4:], 16)
	binary.LittleEndian.PutUint64(hdr[8:], math.MaxUint64/32)
	r, err := NewReader(bytes.NewReader(hdr))
	if err != nil {
		t.Fatal(err)
	}
	if ups, err := r.ReadAll(); !errors.Is(err, io.ErrUnexpectedEOF) || len(ups) != 0 {
		t.Fatalf("ReadAll = %d updates, %v; want none and io.ErrUnexpectedEOF", len(ups), err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("GZS1\x01"))); err == nil {
		t.Fatal("short header accepted")
	}
}

// FuzzStreamReader drives arbitrary bytes through NewReader and the Read
// loop gzrun ingests a stream file with, and through ReadAll on a second
// reader. Each input reads to its declared end or stops at a typed error,
// never panics, and yields at most one update per RecordSize bytes of
// input, whatever its header declares; ReadAll yields what the loop does.
func FuzzStreamReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 16, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range []Update{
		{Edge: Edge{U: 1, V: 2}, Type: Insert},
		{Edge: Edge{U: 3, V: 9}, Type: Delete},
		{Edge: Edge{U: 1, V: 2}, Type: Delete},
	} {
		if err := w.Write(u); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-4])
	hostile := bytes.Clone(good[:16])
	binary.LittleEndian.PutUint64(hostile[8:], math.MaxUint64)
	f.Add(hostile)
	f.Add([]byte("GZS0"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		read := 0
		for err == nil {
			if _, err = r.Read(); err == nil {
				read++
			}
		}
		if read > len(data)/RecordSize {
			t.Fatalf("%d updates out of %d bytes", read, len(data))
		}
		if r2, err2 := NewReader(bytes.NewReader(data)); err2 == nil {
			ups, err2 := r2.ReadAll()
			if len(ups) != read || (err2 == nil) != (err == io.EOF) {
				t.Fatalf("ReadAll = %d updates, %v; the Read loop %d, %v", len(ups), err2, read, err)
			}
		}
		if err == io.EOF {
			if got := r.Header().Count; uint64(read) != got {
				t.Fatalf("read %d updates to the end of a stream declaring %d", read, got)
			}
			return
		}
		for _, want := range []error{io.EOF, io.ErrUnexpectedEOF, ErrBadMagic, ErrCorruptRecord} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("untyped error %v", err)
	})
}
