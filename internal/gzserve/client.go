package gzserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/stream"
)

// ClientConfig tunes one coordinator→worker connection.
type ClientConfig struct {
	// MaxInFlight bounds concurrently outstanding ingest sends to one
	// worker (default 4): the pipelining window that hides network RTT
	// without letting a slow worker absorb unbounded coordinator memory.
	MaxInFlight int
	// MaxAttempts is the total tries per batch, first send included
	// (default 6). Retries are safe: the batch keeps its sequence number
	// and the worker's dedup gate drops redeliveries.
	MaxAttempts int
	// RetryBackoff is the first retry's delay; it doubles per attempt
	// (default 25ms, capped at 1s).
	RetryBackoff time.Duration
	// HTTPClient overrides the transport (tests inject faulty
	// RoundTrippers here). Defaults to a keep-alive http.Client.
	HTTPClient *http.Client
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// ClientStats is one worker connection's send accounting, surfaced in
// the coordinator's /statsz.
type ClientStats struct {
	Addr string `json:"addr"`
	// Batches/Updates count successfully acknowledged sends; Retries
	// counts resends after a failed attempt; Duplicates counts acks that
	// reported the worker had already applied the sequence number (a
	// retry whose original actually landed — proof the dedup path runs).
	Batches    uint64 `json:"batches"`
	Updates    uint64 `json:"updates"`
	Retries    uint64 `json:"retries"`
	Duplicates uint64 `json:"duplicates"`
	// InFlight is the sends currently in the pipeline window; Failed
	// counts batches abandoned after MaxAttempts.
	InFlight int64  `json:"in_flight"`
	Failed   uint64 `json:"failed"`
	// Checkpoints counts successful checkpoint pulls from this worker,
	// DeltaCheckpoints the subset the worker answered with a sparse delta
	// checkpoint, and CheckpointBytes the total checkpoint payload shipped —
	// the bytes delta refresh exists to shrink.
	Checkpoints      uint64 `json:"checkpoints,omitempty"`
	DeltaCheckpoints uint64 `json:"delta_checkpoints,omitempty"`
	CheckpointBytes  uint64 `json:"checkpoint_bytes,omitempty"`
}

// Client speaks the GZW1-over-HTTP protocol to one worker, assigning
// monotonically increasing batch sequence numbers and pipelining up to
// MaxInFlight async sends with retry/backoff. All methods are safe for
// concurrent use.
type Client struct {
	base string
	cfg  ClientConfig

	seq    atomic.Uint64
	window chan struct{}

	mu      sync.Mutex
	idle    sync.Cond // signaled when active drops to zero
	active  int       // sends registered but not yet settled
	sendErr error     // first abandoned-batch error, surfaced by Drain

	batches   atomic.Uint64
	updates   atomic.Uint64
	retries   atomic.Uint64
	dups      atomic.Uint64
	inflight  atomic.Int64
	failed    atomic.Uint64
	ckpts     atomic.Uint64
	deltaCk   atomic.Uint64
	ckptBytes atomic.Uint64
}

// NewClient builds a client for the worker at base (e.g.
// "http://127.0.0.1:7001").
func NewClient(base string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		base:   base,
		cfg:    cfg,
		window: make(chan struct{}, cfg.MaxInFlight),
	}
	c.idle.L = &c.mu
	return c
}

// Addr returns the worker base URL.
func (c *Client) Addr() string { return c.base }

// Stats snapshots the connection counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Addr:             c.base,
		Batches:          c.batches.Load(),
		Updates:          c.updates.Load(),
		Retries:          c.retries.Load(),
		Duplicates:       c.dups.Load(),
		InFlight:         c.inflight.Load(),
		Failed:           c.failed.Load(),
		Checkpoints:      c.ckpts.Load(),
		DeltaCheckpoints: c.deltaCk.Load(),
		CheckpointBytes:  c.ckptBytes.Load(),
	}
}

// Info fetches the worker's engine parameters.
func (c *Client) Info(ctx context.Context) (Info, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathInfo, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return Info{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Info{}, fmt.Errorf("gzserve: %s%s: HTTP %d", c.base, PathInfo, resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("gzserve: decoding %s: %w", PathInfo, err)
	}
	if info.WireVersion != WireVersion {
		return Info{}, &VersionError{Got: uint8(info.WireVersion), Want: WireVersion}
	}
	return info, nil
}

// Send synchronously ships one batch under a fresh sequence number,
// retrying with exponential backoff until acknowledged or attempts run
// out. A duplicate ack (the retried original had landed) counts as
// success.
func (c *Client) Send(ctx context.Context, ups []stream.Update) error {
	return c.sendSeq(ctx, c.seq.Add(1), ups)
}

func (c *Client) sendSeq(ctx context.Context, seq uint64, ups []stream.Update) error {
	frame := AppendFrame(nil, MsgIngest, EncodeIngest(seq, ups))
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		applied, err := c.postIngest(ctx, seq, frame)
		if err == nil {
			if !applied {
				c.dups.Add(1)
			}
			c.batches.Add(1)
			c.updates.Add(uint64(len(ups)))
			return nil
		}
		lastErr = err
		var re *RemoteError
		if errors.As(err, &re) && !re.Retryable() {
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	c.failed.Add(1)
	return fmt.Errorf("gzserve: sending batch seq %d to %s: %w", seq, c.base, lastErr)
}

// postIngest performs one attempt; applied=false means duplicate ack.
func (c *Client) postIngest(ctx context.Context, seq uint64, frame []byte) (applied bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathIngest, bytes.NewReader(frame))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/x-gzw1")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	payload, err := expectFrame(resp.Body, MsgAck)
	if err != nil {
		// Non-frame 5xx bodies (proxies, panics) still classify by status.
		var re *RemoteError
		if !errors.As(err, &re) && resp.StatusCode >= 500 {
			return false, &RemoteError{Code: CodeInternal, Msg: fmt.Sprintf("HTTP %d: %v", resp.StatusCode, err)}
		}
		return false, err
	}
	ackSeq, applied, err := DecodeAck(payload)
	if err != nil {
		return false, err
	}
	if ackSeq != seq {
		return false, fmt.Errorf("%w: ack for seq %d, sent %d", ErrBadPayload, ackSeq, seq)
	}
	return applied, nil
}

// SendAsync ships the batch through the bounded in-flight window,
// blocking only when the window is full. Failures surface on Drain.
// The batch is copied, so the caller may reuse ups. Safe to call
// concurrently with Drain: a Drain that began before this send
// registered is not obliged to wait for it.
func (c *Client) SendAsync(ctx context.Context, ups []stream.Update) {
	batch := make([]stream.Update, len(ups))
	copy(batch, ups)
	seq := c.seq.Add(1) // assign in submission order, before blocking
	c.mu.Lock()
	c.active++
	c.mu.Unlock()
	c.window <- struct{}{}
	c.inflight.Add(1)
	go func() {
		err := c.sendSeq(ctx, seq, batch)
		c.inflight.Add(-1)
		<-c.window
		c.mu.Lock()
		if err != nil && c.sendErr == nil {
			c.sendErr = err
		}
		if c.active--; c.active == 0 {
			c.idle.Broadcast()
		}
		c.mu.Unlock()
	}()
}

// Drain waits for every send registered before it was called (and any
// that register while it waits) and returns the first abandoned batch's
// error, if any (sticky: every later Drain returns it too).
func (c *Client) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.active > 0 {
		c.idle.Wait()
	}
	return c.sendErr
}

// CheckpointPull describes one checkpoint response: the stream position
// of the sealed cut, the cut's chain id (pass it back as since to
// request a delta against this state next time), whether the worker
// answered with a sparse delta checkpoint rather than a full one, and
// the payload length in bytes.
type CheckpointPull struct {
	Updates uint64
	ID      uint64
	Delta   bool
	Bytes   int64
}

// Checkpoint pulls the worker's sealed checkpoint. since is the chain id
// of the last checkpoint this caller holds from the worker (0 for none):
// when non-zero the worker may answer with a delta checkpoint holding only
// the nodes changed since that cut — pull.Delta says which it chose, and
// a worker that lost the base (restart, aged-out history, too much
// churn) transparently falls back to a full checkpoint. The returned
// reader yields exactly the checkpoint bytes (frame already stripped)
// and reports ErrTruncatedFrame if the connection drops before the
// declared length arrives.
func (c *Client) Checkpoint(ctx context.Context, since uint64) (io.ReadCloser, CheckpointPull, error) {
	url := c.base + PathCheckpoint
	if since != 0 {
		url += fmt.Sprintf("?since=%d", since)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, CheckpointPull{}, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, CheckpointPull{}, err
	}
	typ, length, err := ReadFrameHeader(resp.Body)
	if err == nil && typ == MsgError {
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(resp.Body, payload); rerr == nil {
			if re, derr := DecodeError(payload); derr == nil {
				err = re
			} else {
				err = derr
			}
		} else {
			err = fmt.Errorf("%w: error payload: %v", ErrTruncatedFrame, rerr)
		}
	} else if err == nil && typ != MsgCheckpoint {
		err = fmt.Errorf("%w: got %s frame, want %s", ErrBadPayload, typ, MsgCheckpoint)
	}
	if err != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, CheckpointPull{}, err
	}
	pull := CheckpointPull{Bytes: int64(length)}
	fmt.Sscanf(resp.Header.Get("X-GZ-Updates"), "%d", &pull.Updates)
	fmt.Sscanf(resp.Header.Get("X-GZ-Checkpoint-ID"), "%d", &pull.ID)
	pull.Delta = resp.Header.Get("X-GZ-Checkpoint-Delta") == "1"
	c.ckpts.Add(1)
	if pull.Delta {
		c.deltaCk.Add(1)
	}
	c.ckptBytes.Add(uint64(length))
	return &frameBody{r: resp.Body, remaining: int64(length)}, pull, nil
}

// WorkerStatsz fetches the worker's /statsz document.
func (c *Client) WorkerStatsz(ctx context.Context) (WorkerStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStatsz, nil)
	if err != nil {
		return WorkerStats{}, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return WorkerStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return WorkerStats{}, fmt.Errorf("gzserve: %s%s: HTTP %d", c.base, PathStatsz, resp.StatusCode)
	}
	var st WorkerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return WorkerStats{}, err
	}
	return st, nil
}

// frameBody exposes a frame's payload as a reader that turns a short
// underlying stream (dropped connection) into ErrTruncatedFrame instead
// of a bare EOF the checkpoint decoder might misread.
type frameBody struct {
	r         io.ReadCloser
	remaining int64
}

func (f *frameBody) Read(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.r.Read(p)
	f.remaining -= int64(n)
	if err != nil {
		if errors.Is(err, io.EOF) && f.remaining > 0 {
			err = fmt.Errorf("%w: checkpoint body short by %d bytes", ErrTruncatedFrame, f.remaining)
		} else if errors.Is(err, io.EOF) {
			err = io.EOF
		}
	}
	return n, err
}

func (f *frameBody) Close() error { return f.r.Close() }
