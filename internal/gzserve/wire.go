// Package gzserve is the networked distributed-ingestion subsystem: it
// turns the paper's conclusion — linear sketches "can be partitioned
// throughout a distributed cluster without sacrificing stream ingestion
// rate" — into a deployable service. A cluster is K worker processes,
// each running a full engine over the shared node universe and ingesting
// the slice of the stream routed to it, plus one coordinator that
// partitions incoming edge batches by node range, pipelines them to the
// workers with bounded in-flight windows and retry/backoff, periodically
// pulls checkpoints, and answers global connectivity queries by
// streaming those checkpoints through core.MergeCheckpoint into an
// aggregator engine.
//
// The package splits into the wire protocol (this file), the node-range
// Partitioner (partition.go), the Worker server (worker.go), the
// sequence-numbered retrying client (client.go), the Coordinator
// (coordinator.go), and the checkpoint-merge Aggregate helper
// (aggregate.go).
//
// Consistency model: ingestion is eventually consistent with queries —
// a query reflects exactly the worker checkpoints merged by the most
// recent refresh (a single consistent cut per worker, all updates the
// worker had accepted at seal time). Refresh drains the coordinator's
// send windows first, so "refresh then query" observes every batch the
// coordinator had accepted before the refresh began.
package gzserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"graphzeppelin/internal/stream"
)

// Wire format (GZW1): every request and response body is one frame —
//
//	magic   [4]byte  "GZW1"
//	version uint8    protocol version (= 1)
//	type    uint8    message type
//	flags   uint16   reserved, must be zero
//	length  uint32   payload bytes, little endian
//	payload length bytes
//
// Payloads by type:
//
//	MsgIngest:     seq uint64 | count uint32 | count × stream records
//	               (stream.RecordSize bytes each — the GZS1 file codec's
//	               record layout, reused verbatim)
//	MsgAck:        seq uint64 | applied uint8 (1 = applied, 0 = dropped
//	               as a duplicate of an already-applied sequence number)
//	MsgCheckpoint: a complete checkpoint, full or delta (self-validating;
//	               the frame length lets the receiver detect truncation
//	               before handing bytes to the decoder)
//	MsgError:      code uint16 | utf-8 message — typed error propagation
//	               for transport-level failures; application errors also
//	               ride on HTTP status codes
//
// The frame is deliberately transport-agnostic: it is carried in HTTP
// bodies today but decodes off any io.Reader.

// wireMagic identifies a GZW1 frame.
var wireMagic = [4]byte{'G', 'Z', 'W', '1'}

// WireVersion is the protocol version this build speaks.
const WireVersion = 1

const (
	frameHeaderLen = 12
	// maxFramePayload caps a frame's declared payload so a corrupt or
	// hostile length field cannot force an arbitrary allocation.
	maxFramePayload = 1 << 28
	// maxCheckpointPayload is the cap for MsgCheckpoint frames, which are
	// streamed on both sides (never allocated whole), so the allocation
	// argument behind maxFramePayload does not apply. Large engines
	// (NumNodes × slot size) routinely exceed 1<<28; the cap here is the
	// largest length that is safe in an int on every platform.
	maxCheckpointPayload = 1<<31 - 1
	// ingestHeaderLen is the seq + count prefix of a MsgIngest payload.
	ingestHeaderLen = 12
)

// maxPayloadFor returns the payload cap for the frame type.
func maxPayloadFor(typ MsgType) int64 {
	if typ == MsgCheckpoint {
		return maxCheckpointPayload
	}
	return maxFramePayload
}

// MsgType is the frame type tag.
type MsgType uint8

// Frame types.
const (
	MsgIngest     MsgType = 1
	MsgAck        MsgType = 2
	MsgCheckpoint MsgType = 3
	MsgError      MsgType = 4
)

// String names the frame type.
func (t MsgType) String() string {
	switch t {
	case MsgIngest:
		return "ingest"
	case MsgAck:
		return "ack"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Typed wire-protocol errors. Transport faults decode to exactly one of
// these so callers can distinguish retryable stream damage (truncation,
// connection drop) from permanent incompatibility (bad magic, version).
var (
	// ErrBadMagic indicates the bytes are not a GZW1 frame at all.
	ErrBadMagic = errors.New("gzserve: bad magic (not a GZW1 frame)")
	// ErrVersionMismatch indicates a frame from an incompatible protocol
	// version; see VersionError for the versions involved.
	ErrVersionMismatch = errors.New("gzserve: protocol version mismatch")
	// ErrTruncatedFrame indicates the stream ended inside a frame header
	// or before the declared payload length was delivered (including
	// mid-stream connection drops).
	ErrTruncatedFrame = errors.New("gzserve: truncated frame")
	// ErrFrameTooLarge indicates a declared payload beyond the sanity cap.
	ErrFrameTooLarge = errors.New("gzserve: frame payload too large")
	// ErrBadPayload indicates a structurally invalid payload for the
	// frame's declared type.
	ErrBadPayload = errors.New("gzserve: malformed payload")
)

// VersionError carries the versions behind an ErrVersionMismatch.
type VersionError struct {
	Got, Want uint8
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("gzserve: protocol version %d, this build speaks %d", e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrVersionMismatch) hold.
func (e *VersionError) Unwrap() error { return ErrVersionMismatch }

// AppendFrame appends a complete frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, typ MsgType, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], wireMagic[:])
	hdr[4] = WireVersion
	hdr[5] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ MsgType, payload []byte) error {
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], wireMagic[:])
	hdr[4] = WireVersion
	hdr[5] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFrameHeader writes only the 12-byte frame header declaring a
// payload of length bytes; the caller streams the payload afterwards.
// This is how checkpoint responses avoid buffering: the size is
// known exactly up front (core.CheckpointSnapshot.Size), so the frame is
// length-prefixed yet streamed.
func WriteFrameHeader(w io.Writer, typ MsgType, length int64) error {
	if length < 0 || length > maxPayloadFor(typ) {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], wireMagic[:])
	hdr[4] = WireVersion
	hdr[5] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(length))
	_, err := w.Write(hdr[:])
	return err
}

// ReadFrameHeader reads and validates a frame header, returning the type
// and declared payload length without consuming the payload.
func ReadFrameHeader(r io.Reader) (MsgType, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, fmt.Errorf("%w: header: %v", ErrTruncatedFrame, err)
		}
		return 0, 0, err
	}
	if [4]byte(hdr[:4]) != wireMagic {
		return 0, 0, ErrBadMagic
	}
	if hdr[4] != WireVersion {
		return 0, 0, &VersionError{Got: hdr[4], Want: WireVersion}
	}
	if flags := binary.LittleEndian.Uint16(hdr[6:]); flags != 0 {
		return 0, 0, fmt.Errorf("%w: reserved flags %#x set", ErrBadPayload, flags)
	}
	typ := MsgType(hdr[5])
	length := binary.LittleEndian.Uint32(hdr[8:])
	if int64(length) > maxPayloadFor(typ) {
		return 0, 0, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, length)
	}
	return typ, int(length), nil
}

// ReadFrame reads one complete frame, returning its type and payload.
// A stream that ends mid-payload (a dropped connection) surfaces as
// ErrTruncatedFrame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	typ, length, err := ReadFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: %s payload: got fewer than the declared %d bytes (%v)",
			ErrTruncatedFrame, typ, length, err)
	}
	return typ, payload, nil
}

// EncodeIngest builds a MsgIngest payload: the batch's sequence number
// followed by the packed stream records.
func EncodeIngest(seq uint64, ups []stream.Update) []byte {
	payload := make([]byte, ingestHeaderLen, ingestHeaderLen+len(ups)*stream.RecordSize)
	binary.LittleEndian.PutUint64(payload[0:], seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(ups)))
	return stream.AppendUpdates(payload, ups)
}

// DecodeIngest unpacks a MsgIngest payload.
func DecodeIngest(p []byte) (seq uint64, ups []stream.Update, err error) {
	if len(p) < ingestHeaderLen {
		return 0, nil, fmt.Errorf("%w: ingest payload %d bytes, header needs %d", ErrBadPayload, len(p), ingestHeaderLen)
	}
	seq = binary.LittleEndian.Uint64(p[0:])
	count := binary.LittleEndian.Uint32(p[8:])
	body := p[ingestHeaderLen:]
	if uint64(len(body)) != uint64(count)*stream.RecordSize {
		return 0, nil, fmt.Errorf("%w: ingest declared %d records but carries %d bytes", ErrBadPayload, count, len(body))
	}
	ups, derr := stream.DecodeUpdates(body)
	if derr != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, derr)
	}
	return seq, ups, nil
}

// EncodeAck builds a MsgAck payload.
func EncodeAck(seq uint64, applied bool) []byte {
	p := make([]byte, 9)
	binary.LittleEndian.PutUint64(p, seq)
	if applied {
		p[8] = 1
	}
	return p
}

// DecodeAck unpacks a MsgAck payload.
func DecodeAck(p []byte) (seq uint64, applied bool, err error) {
	if len(p) != 9 {
		return 0, false, fmt.Errorf("%w: ack payload %d bytes, want 9", ErrBadPayload, len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8] == 1, nil
}

// ErrorCode classifies a MsgError payload.
type ErrorCode uint16

// Error codes carried by MsgError frames.
const (
	// CodeBadRequest: the request frame or payload was malformed.
	CodeBadRequest ErrorCode = 1
	// CodeIncompatible: engine parameters (nodes, seed, columns, rounds)
	// or protocol versions do not match; retrying cannot help.
	CodeIncompatible ErrorCode = 2
	// CodeClosed: the server is shutting down and no longer accepts work.
	CodeClosed ErrorCode = 3
	// CodeInternal: the server failed before the request took effect;
	// retrying the same request is safe and may succeed.
	CodeInternal ErrorCode = 4
	// CodeBusy: the same sequence number is currently being applied by
	// another in-flight request; retry after it settles.
	CodeBusy ErrorCode = 5
	// CodeFailed: the request failed after its batch may have entered the
	// apply pipeline (its sequence number is committed), or failed in a
	// way a resend cannot fix. Not retryable: a resend would only be
	// dropped as a duplicate.
	CodeFailed ErrorCode = 6
)

// RemoteError is a server-side failure propagated through a MsgError
// frame.
type RemoteError struct {
	Code ErrorCode
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("gzserve: remote error %d: %s", e.Code, e.Msg)
}

// Retryable reports whether resending the same request can succeed.
func (e *RemoteError) Retryable() bool {
	return e.Code == CodeInternal || e.Code == CodeBusy
}

// EncodeError builds a MsgError payload.
func EncodeError(code ErrorCode, msg string) []byte {
	p := make([]byte, 2, 2+len(msg))
	binary.LittleEndian.PutUint16(p, uint16(code))
	return append(p, msg...)
}

// DecodeError unpacks a MsgError payload into a RemoteError.
func DecodeError(p []byte) (*RemoteError, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: error payload %d bytes, want >= 2", ErrBadPayload, len(p))
	}
	return &RemoteError{Code: ErrorCode(binary.LittleEndian.Uint16(p)), Msg: string(p[2:])}, nil
}

// expectFrame reads one frame and requires it to be of type want; a
// MsgError frame decodes into the returned error instead.
func expectFrame(r io.Reader, want MsgType) ([]byte, error) {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if typ == MsgError {
		re, derr := DecodeError(payload)
		if derr != nil {
			return nil, derr
		}
		return nil, re
	}
	if typ != want {
		return nil, fmt.Errorf("%w: got %s frame, want %s", ErrBadPayload, typ, want)
	}
	return payload, nil
}
