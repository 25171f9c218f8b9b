package wal

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// testUpdates returns n deterministic updates starting at ordinal start,
// so a replayed suffix can be compared against the exact appended data.
func testUpdates(start, n int) []stream.Update {
	ups := make([]stream.Update, n)
	for i := range ups {
		k := uint32(start + i)
		ups[i] = stream.Update{Edge: stream.Edge{U: k, V: k + 1}, Type: stream.UpdateType(k % 2)}
	}
	return ups
}

// collect replays everything after `after` into a slice.
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(after, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

// checkPrefix asserts recs is exactly the first len(recs) appended
// batches: contiguous LSNs from 1 and matching seqs/updates.
func checkPrefix(t *testing.T, recs []Record, seqs []uint64, batches [][]stream.Update) {
	t.Helper()
	if len(recs) > len(batches) {
		t.Fatalf("replay returned %d records, only %d were appended", len(recs), len(batches))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d, want %d", i, r.LSN, i+1)
		}
		if r.Seq != seqs[i] {
			t.Fatalf("record %d: seq %d, want %d", i, r.Seq, seqs[i])
		}
		if len(r.Updates) != len(batches[i]) {
			t.Fatalf("record %d: %d updates, want %d", i, len(r.Updates), len(batches[i]))
		}
		for j, u := range r.Updates {
			if u != batches[i][j] {
				t.Fatalf("record %d update %d: %+v, want %+v", i, j, u, batches[i][j])
			}
		}
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	st := NewMemStorage(64)
	l, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var batches [][]stream.Update
	for i := 0; i < 20; i++ {
		ups := testUpdates(i*10, 1+i%7)
		seq := uint64(1000 + i)
		lsn, err := l.Append(seq, ups)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: LSN %d", i, lsn)
		}
		seqs = append(seqs, seq)
		batches = append(batches, ups)
	}
	recs := collect(t, l, 0)
	if len(recs) != 20 {
		t.Fatalf("replay: %d records, want 20", len(recs))
	}
	checkPrefix(t, recs, seqs, batches)
	// After = n-1 yields only the last record.
	if got := collect(t, l, 19); len(got) != 1 || got[0].LSN != 20 {
		t.Fatalf("partial replay returned %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, testUpdates(0, 1)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	// Reopen over the same storage: the tail position and every record
	// survive.
	l2, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := l2.TailLSN(); tail != 20 {
		t.Fatalf("reopened tail LSN %d, want 20", tail)
	}
	if s := l2.Stats(); s.RecoveredRecords != 20 || s.RecoveredTorn {
		t.Fatalf("reopen stats %+v", s)
	}
	checkPrefix(t, collect(t, l2, 0), seqs, batches)
	if lsn, err := l2.Append(77, testUpdates(0, 3)); err != nil || lsn != 21 {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	st := NewMemStorage(64)
	// Tiny segments: each 9-update record is 16+81 bytes, so a 256-byte
	// threshold rotates every couple of records.
	l, err := Open(Options{Storage: st, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var batches [][]stream.Update
	for i := 0; i < 30; i++ {
		ups := testUpdates(i*9, 9)
		if _, err := l.Append(uint64(i), ups); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, uint64(i))
		batches = append(batches, ups)
	}
	s := l.Stats()
	if s.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	checkPrefix(t, collect(t, l, 0), seqs, batches)

	// A checkpoint covering LSN 15 removes every wholly-covered segment
	// but keeps all records above 15 replayable.
	if err := l.Truncate(15); err != nil {
		t.Fatal(err)
	}
	s2 := l.Stats()
	if s2.Truncations == 0 || s2.Segments >= s.Segments {
		t.Fatalf("truncate removed nothing: before %d after %d segments", s.Segments, s2.Segments)
	}
	var first uint64
	l.Replay(15, func(r Record) error {
		if first == 0 {
			first = r.LSN
		}
		return nil
	})
	if first != 16 {
		t.Fatalf("first replayed LSN after truncate = %d, want 16", first)
	}

	// Covering the full tail schedules the current segment's rotation so
	// the next checkpoint can drop it too.
	if err := l.Truncate(l.TailLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(99, testUpdates(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(l.TailLSN() - 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("after covered rotation: %d segments, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after truncation: the first surviving segment's prevTail is
	// trusted and the tail continues from where it was.
	l2, err := Open(Options{Storage: st, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := l2.TailLSN(); tail != 31 {
		t.Fatalf("reopened tail %d, want 31", tail)
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	st := NewMemStorage(64)
	l, err := Open(Options{Storage: st, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(g*per + i + 1)
				if _, err := l.Append(seq, testUpdates(int(seq), 3)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := l.Stats()
	if s.Appends != goroutines*per {
		t.Fatalf("appends = %d", s.Appends)
	}
	if s.GroupCommits == 0 || s.GroupCommits > s.Appends {
		t.Fatalf("group commits = %d vs %d appends", s.GroupCommits, s.Appends)
	}
	// Every seq appears exactly once and LSNs are dense.
	seen := make(map[uint64]bool)
	n := uint64(0)
	l.Replay(0, func(r Record) error {
		n++
		if r.LSN != n {
			t.Fatalf("LSN %d at position %d", r.LSN, n)
		}
		if seen[r.Seq] {
			t.Fatalf("seq %d duplicated", r.Seq)
		}
		seen[r.Seq] = true
		return nil
	})
	if n != goroutines*per {
		t.Fatalf("replayed %d records", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashReplayIsPrefix is the randomized power-cut harness: append
// with no fsync, cut the power at a random point in every segment's
// unsynced write stream (torn block prefixes included), reopen, and
// require the replay to be exactly a prefix of the appended batches —
// never a resurrected half-record, never a record whose predecessor is
// missing.
func TestCrashReplayIsPrefix(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := NewMemStorage(32)
			l, err := Open(Options{
				Storage:      st,
				SegmentBytes: int64(128 + rng.Intn(512)),
				Policy:       FsyncOff,
			})
			if err != nil {
				t.Fatal(err)
			}
			var seqs []uint64
			var batches [][]stream.Update
			n := 10 + rng.Intn(60)
			for i := 0; i < n; i++ {
				ups := testUpdates(i*13, 1+rng.Intn(12))
				if _, err := l.Append(uint64(i+1), ups); err != nil {
					t.Fatal(err)
				}
				seqs = append(seqs, uint64(i+1))
				batches = append(batches, ups)
			}
			// Cut before closing: the image must not depend on a clean
			// shutdown.
			crashed := st.Crash(func(name string, unsynced int) (keep, torn int) {
				return rng.Intn(unsynced + 1), rng.Intn(256)
			})
			l.Close()

			l2, err := Open(Options{Storage: crashed})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			recs := collect(t, l2, 0)
			checkPrefix(t, recs, seqs, batches)
			// The log must remain appendable, and a third open must see
			// the survivors plus the new record.
			if _, err := l2.Append(9999, testUpdates(0, 2)); err != nil {
				t.Fatal(err)
			}
			wantTail := uint64(len(recs) + 1)
			if tail := l2.TailLSN(); tail != wantTail {
				t.Fatalf("tail after crash+append = %d, want %d", tail, wantTail)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, err := Open(Options{Storage: crashed})
			if err != nil {
				t.Fatal(err)
			}
			if got := uint64(len(collect(t, l3, 0))); got != wantTail {
				t.Fatalf("second reopen replayed %d records, want %d", got, wantTail)
			}
			l3.Close()
		})
	}
}

// TestFsyncBatchSurvivesCrash pins the durability contract behind the
// engine's acks: with the batch policy, every Append that returned is on
// stable storage, so a zero-keep power cut loses nothing.
func TestFsyncBatchSurvivesCrash(t *testing.T) {
	st := NewMemStorage(32)
	l, err := Open(Options{Storage: st, SegmentBytes: 512, Policy: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var batches [][]stream.Update
	for i := 0; i < 40; i++ {
		ups := testUpdates(i*5, 5)
		if _, err := l.Append(uint64(i+1), ups); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, uint64(i+1))
		batches = append(batches, ups)
	}
	if d, tail := l.DurableLSN(), l.TailLSN(); d != tail {
		t.Fatalf("durable %d behind tail %d under FsyncBatch", d, tail)
	}
	crashed := st.Crash(nil) // keep nothing unsynced
	l.Close()
	l2, err := Open(Options{Storage: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if len(recs) != 40 {
		t.Fatalf("lost acked records: replayed %d of 40", len(recs))
	}
	checkPrefix(t, recs, seqs, batches)
}

// TestCorruptionDropsSuffix flips one payload byte in an early segment:
// replay must stop before the corrupt record and physically drop every
// later segment, even though those segments are individually intact.
func TestCorruptionDropsSuffix(t *testing.T) {
	st := NewMemStorage(32)
	l, err := Open(Options{Storage: st, SegmentBytes: 300, Policy: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append(uint64(i+1), testUpdates(i*4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Stats().Segments; segs < 3 {
		t.Fatalf("need ≥3 segments, got %d", segs)
	}
	l.Close()

	// Flip a payload byte in the first segment, past its header and the
	// first record's header.
	dev := st.Device(segName(0))
	if dev == nil {
		t.Fatal("segment 0 missing")
	}
	pos := int64(segHeaderLen + recHeaderLen + 2)
	b := make([]byte, 1)
	dev.ReadAt(b, pos)
	b[0] ^= 0xff
	dev.WriteAt(b, pos)
	dev.Sync()

	l2, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if len(recs) != 0 {
		t.Fatalf("replayed %d records past a corrupt first record", len(recs))
	}
	if s := l2.Stats(); !s.RecoveredTorn || s.Segments != 1 {
		t.Fatalf("stats after corruption: %+v", s)
	}
	names, _ := st.List()
	if len(names) != 1 {
		t.Fatalf("later segments not dropped: %v", names)
	}
}

// TestLostFsyncDetected models lying hardware: the device reports a
// successful sync without persisting, the machine dies, and a later
// segment's chained prevTail exposes the hole instead of replaying a log
// with a missing middle.
func TestLostFsyncDetected(t *testing.T) {
	st := NewMemStorage(32)
	l, err := Open(Options{Storage: st, SegmentBytes: 250, Policy: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, testUpdates(0, 8)); err != nil {
		t.Fatal(err)
	}
	// Arm the current segment to lie about its remaining fsyncs — the
	// next record's group commit AND the rotation barrier — so its bytes
	// never reach stable storage, while the following record rotates into
	// a new segment whose header pins the full tail.
	st.Device(segName(0)).LoseSyncs(2)
	if _, err := l.Append(2, testUpdates(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(3, testUpdates(16, 8)); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Segments < 2 {
		t.Skip("rotation did not trigger; segment size tuning drifted")
	}
	crashed := st.Crash(nil)
	l.Close()
	l2, err := Open(Options{Storage: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	// Record 2's bytes are gone; record 3 must not survive it.
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (the hole must truncate the suffix)", len(recs))
	}
	if !l2.Stats().RecoveredTorn {
		t.Fatal("lost-write hole not reported as torn")
	}
}

func TestSkipTo(t *testing.T) {
	st := NewMemStorage(64)
	l, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	l.SkipTo(50)
	lsn, err := l.Append(7, testUpdates(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 51 {
		t.Fatalf("LSN after SkipTo(50) = %d, want 51", lsn)
	}
	l.Close()
	l2, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if len(recs) != 1 || recs[0].LSN != 51 || recs[0].Seq != 7 {
		t.Fatalf("replay after SkipTo: %+v", recs)
	}
	if tail := l2.TailLSN(); tail != 51 {
		t.Fatalf("tail %d, want 51", tail)
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		st := NewMemStorage(64)
		l, err := Open(Options{Storage: st, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append(0, testUpdates(i, 2)); err != nil {
				t.Fatal(err)
			}
		}
		l.Sync()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if f := l.Stats().Fsyncs; f != 0 {
			t.Fatalf("FsyncOff issued %d fsyncs", f)
		}
	})
	t.Run("interval", func(t *testing.T) {
		st := NewMemStorage(64)
		l, err := Open(Options{Storage: st, Policy: FsyncInterval, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < 10; i++ {
			if _, err := l.Append(0, testUpdates(i, 2)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for l.DurableLSN() != l.TailLSN() {
			if time.Now().After(deadline) {
				t.Fatalf("interval syncer never caught up: durable %d, tail %d",
					l.DurableLSN(), l.TailLSN())
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("parse", func(t *testing.T) {
		for _, p := range []FsyncPolicy{FsyncBatch, FsyncInterval, FsyncOff} {
			got, err := ParseFsyncPolicy(p.String())
			if err != nil || got != p {
				t.Fatalf("round trip %v: %v %v", p, got, err)
			}
			// The flag.Value side: Set lands on the same policy.
			var set FsyncPolicy = -1
			if err := set.Set(p.String()); err != nil || set != p {
				t.Fatalf("Set(%q) = %v, %v", p.String(), set, err)
			}
		}
		if _, err := ParseFsyncPolicy("always"); err == nil {
			t.Fatal("bogus policy parsed")
		}
		if p := FsyncOff; p.Set("always") == nil || p != FsyncOff {
			t.Fatal("bogus policy set")
		}
	})
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Storage: st, SegmentBytes: 400, Policy: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var batches [][]stream.Update
	for i := 0; i < 25; i++ {
		ups := testUpdates(i*3, 3)
		if _, err := l.Append(uint64(i+1), ups); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, uint64(i+1))
		batches = append(batches, ups)
	}
	if err := l.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Storage: st, SegmentBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if len(recs) == 0 || recs[len(recs)-1].LSN != 25 {
		t.Fatalf("reopened dir log replayed %d records", len(recs))
	}
	for _, r := range recs {
		i := r.LSN - 1
		if r.Seq != seqs[i] || len(r.Updates) != len(batches[i]) {
			t.Fatalf("record %d mismatch after dir reopen", r.LSN)
		}
	}
}

func benchmarkAppend(b *testing.B, policy FsyncPolicy, batch int) {
	st, err := NewDirStorage(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	l, err := Open(Options{Storage: st, Policy: policy, Interval: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ups := testUpdates(0, batch)
	b.SetBytes(int64(batch * stream.RecordSize))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(0, ups); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncBatch, FsyncInterval, FsyncOff} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			benchmarkAppend(b, policy, 512)
		})
	}
}

// memDevStorage puts every segment on a fresh iomodel.MemDevice, the plain
// in-memory device beside MemStorage's power-cut ones. It never lists or
// reopens anything, which is all an append-only test needs.
type memDevStorage struct{}

func (memDevStorage) Open(string) (iomodel.Device, int64, error) { return iomodel.NewMem(64), 0, nil }
func (memDevStorage) Remove(string) error                        { return nil }
func (memDevStorage) List() ([]string, error)                    { return nil, nil }

// TestAppendEdgesAllocatesNothing pins the steady-state append at zero
// allocations per call, on both in-memory devices and under every fsync
// policy: the record is encoded straight into the group-commit buffer, and
// the batch the last leader wrote is the buffer the next appends fill.
// (Device images still grow, by doubling, which rounds to zero per call.)
func TestAppendEdgesAllocatesNothing(t *testing.T) {
	edges := make([]stream.Edge, 512)
	for i := range edges {
		edges[i] = stream.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	for _, st := range []struct {
		name string
		new  func() Storage
	}{
		{"mem", func() Storage { return memDevStorage{} }},
		{"powercut", func() Storage { return NewMemStorage(64) }},
	} {
		for _, policy := range []FsyncPolicy{FsyncBatch, FsyncInterval, FsyncOff} {
			t.Run(st.name+"/"+policy.String(), func(t *testing.T) {
				// One segment for the whole run: a rotation allocates the next.
				l, err := Open(Options{Storage: st.new(), Policy: policy, SegmentBytes: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				appendOnce := func() {
					if _, err := l.AppendEdges(7, edges); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 8; i++ {
					appendOnce()
				}
				if allocs := testing.AllocsPerRun(200, appendOnce); allocs != 0 {
					t.Fatalf("AppendEdges allocated %v times per call", allocs)
				}
			})
		}
	}
}

// TestGroupCommitBufferReuseSurvivesPowerCut drives concurrent appenders
// through group commits, so the leader's batch and the appenders' buffer
// trade places many times, then cuts the power keeping nothing unsynced:
// under FsyncBatch every acked record must replay at the LSN it was acked
// with, byte for byte — no record written from a buffer that was already
// being refilled.
func TestGroupCommitBufferReuseSurvivesPowerCut(t *testing.T) {
	st := NewMemStorage(32)
	l, err := Open(Options{Storage: st, SegmentBytes: 4096, Policy: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 60
	var mu sync.Mutex
	acked := map[uint64]Record{}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				seq := uint64(p*perProducer + i + 1)
				ups := testUpdates(int(seq)*7, 1+int(seq)%9)
				lsn, err := l.Append(seq, ups)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[lsn] = Record{LSN: lsn, Seq: seq, Updates: ups}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	crashed := st.Crash(nil)
	l.Close()
	l2, err := Open(Options{Storage: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if len(recs) != producers*perProducer {
		t.Fatalf("replayed %d records, %d were acked", len(recs), producers*perProducer)
	}
	for _, r := range recs {
		want, ok := acked[r.LSN]
		if !ok || r.Seq != want.Seq || !slices.Equal(r.Updates, want.Updates) {
			t.Fatalf("record %d replays seq %d with %d updates, acked seq %d with %d", r.LSN, r.Seq, len(r.Updates), want.Seq, len(want.Updates))
		}
	}
}
