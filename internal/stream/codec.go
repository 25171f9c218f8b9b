package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary stream format:
//
//	magic   [4]byte  "GZS1"
//	nodes   uint32   number of nodes the stream is defined over
//	count   uint64   number of updates
//	updates count × 9 bytes: type(1) | u(4) | v(4), little endian
//
// The fixed-width record keeps the on-disk representation close to the
// paper's 2×4-byte edge encoding while staying trivially seekable.

var magic = [4]byte{'G', 'Z', 'S', '1'}

// RecordSize is the fixed wire size of one encoded update: type(1) |
// u(4) | v(4), little endian. The file codec below and the gzserve wire
// protocol share this record layout, so a batch captured off the network
// can be replayed from disk (and vice versa) byte for byte.
const RecordSize = 9

// AppendUpdate appends u's fixed-width record to dst and returns the
// extended slice.
func AppendUpdate(dst []byte, u Update) []byte {
	var rec [RecordSize]byte
	rec[0] = byte(u.Type)
	binary.LittleEndian.PutUint32(rec[1:], u.Edge.U)
	binary.LittleEndian.PutUint32(rec[5:], u.Edge.V)
	return append(dst, rec[:]...)
}

// AppendUpdates appends every update's record to dst.
func AppendUpdates(dst []byte, ups []Update) []byte {
	for _, u := range ups {
		dst = AppendUpdate(dst, u)
	}
	return dst
}

// DecodeUpdate decodes one record from the front of b, validating the
// type byte.
func DecodeUpdate(b []byte) (Update, error) {
	if len(b) < RecordSize {
		return Update{}, fmt.Errorf("stream: short record: %d bytes", len(b))
	}
	if b[0] > 1 {
		return Update{}, fmt.Errorf("%w: type byte %d", ErrCorruptRecord, b[0])
	}
	return Update{
		Type: UpdateType(b[0]),
		Edge: Edge{
			U: binary.LittleEndian.Uint32(b[1:]),
			V: binary.LittleEndian.Uint32(b[5:]),
		},
	}, nil
}

// DecodeUpdates decodes a packed run of records; b must be an exact
// multiple of RecordSize.
func DecodeUpdates(b []byte) ([]Update, error) {
	if len(b)%RecordSize != 0 {
		return nil, fmt.Errorf("stream: %d bytes is not a whole number of %d-byte records", len(b), RecordSize)
	}
	out := make([]Update, 0, len(b)/RecordSize)
	for off := 0; off < len(b); off += RecordSize {
		u, err := DecodeUpdate(b[off:])
		if err != nil {
			return nil, fmt.Errorf("stream: record %d: %w", off/RecordSize, err)
		}
		out = append(out, u)
	}
	return out, nil
}

// Header describes a serialized stream.
type Header struct {
	NumNodes uint32
	Count    uint64
}

// ErrBadMagic indicates the input is not a GZS1 stream.
var ErrBadMagic = errors.New("stream: bad magic (not a GZS1 stream)")

// ErrCorruptRecord is wrapped by the error for a record whose type byte is
// neither Insert nor Delete.
var ErrCorruptRecord = errors.New("stream: corrupt record")

// Writer serializes updates to an io.Writer. Close (or Flush) must be
// called to flush buffered records; the header is written eagerly, so the
// declared count must be known up front.
type Writer struct {
	w       *bufio.Writer
	written uint64
	declare uint64
}

// NewWriter writes a stream header for numNodes nodes and count updates
// and returns a Writer for the records.
func NewWriter(w io.Writer, numNodes uint32, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], numNodes)
	binary.LittleEndian.PutUint64(hdr[4:], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, declare: count}, nil
}

// Write appends one update record.
func (w *Writer) Write(u Update) error {
	var rec [RecordSize]byte
	if _, err := w.w.Write(AppendUpdate(rec[:0], u)); err != nil {
		return err
	}
	w.written++
	return nil
}

// Flush flushes buffered records and verifies the declared count was met.
func (w *Writer) Flush() error {
	if w.written != w.declare {
		return fmt.Errorf("stream: wrote %d updates, header declared %d", w.written, w.declare)
	}
	return w.w.Flush()
}

// Reader deserializes updates from an io.Reader.
type Reader struct {
	r      *bufio.Reader
	hdr    Header
	readed uint64
}

// NewReader reads and validates the stream header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("stream: reading header: %w", err)
	}
	return &Reader{
		r: br,
		hdr: Header{
			NumNodes: binary.LittleEndian.Uint32(hdr[0:]),
			Count:    binary.LittleEndian.Uint64(hdr[4:]),
		},
	}, nil
}

// Header returns the stream header.
func (r *Reader) Header() Header { return r.hdr }

// Read returns the next update, or io.EOF after the declared count. A
// short read before the declared count is reported as ErrUnexpectedEOF.
func (r *Reader) Read() (Update, error) {
	if r.readed >= r.hdr.Count {
		return Update{}, io.EOF
	}
	var rec [RecordSize]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Update{}, fmt.Errorf("stream: truncated at update %d/%d: %w", r.readed, r.hdr.Count, err)
	}
	r.readed++
	u, err := DecodeUpdate(rec[:])
	if err != nil {
		return Update{}, fmt.Errorf("stream: record %d: %w", r.readed-1, err)
	}
	return u, nil
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Update, error) {
	out := make([]Update, 0, r.hdr.Count-r.readed)
	for {
		u, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, u)
	}
}
