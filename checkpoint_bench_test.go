// Benchmarks for the durability subsystem: low-stall snapshot writes,
// parallel restore, and the zero-alloc checkpoint merge. Smoke-run in CI;
// end to end, the durable-recover workload's ckpt_delta_ms and recover_s
// measure the same code.
package graphzeppelin_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphzeppelin"
)

// benchCheckpointGraph builds a fully ingested, drained graph over the
// bench stream.
func benchCheckpointGraph(b *testing.B, opts ...graphzeppelin.Option) *graphzeppelin.Graph {
	b.Helper()
	res := benchStream()
	opts = append([]graphzeppelin.Option{graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2)}, opts...)
	g, err := graphzeppelin.New(res.NumNodes, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	if err := g.ApplyBatch(res.Updates); err != nil {
		b.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkCheckpointWrite measures snapshot streaming in both placements
// while a producer keeps ingesting: ns/op is the full stream write, the
// stallNs metric is how long ingestion was actually excluded (drain +
// slab-seal / copy-on-write install) — the low-stall guarantee is
// stallNs ≪ ns/op. MB/s is checkpoint bytes over total write time.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts func(b *testing.B) []graphzeppelin.Option
	}{
		{"ram", func(*testing.B) []graphzeppelin.Option { return nil }},
		{"disk", func(b *testing.B) []graphzeppelin.Option {
			return []graphzeppelin.Option{graphzeppelin.WithSketchesOnDisk(b.TempDir())}
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			g := benchCheckpointGraph(b, mode.opts(b)...)
			res := benchStream()
			// A live producer runs throughout, so the checkpoint must
			// tolerate (and in disk mode copy-on-write around) concurrent
			// ingestion — the workload the stall bound is for.
			stop := make(chan struct{})
			producerDone := make(chan struct{})
			go func() {
				defer close(producerDone)
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					u := res.Updates[i%len(res.Updates)]
					if err := g.Apply(u); err != nil {
						return
					}
					i++
				}
			}()
			var bytesOut int64
			var stallNs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw := &countingWriter{}
				if err := g.WriteCheckpoint(cw); err != nil {
					b.Fatal(err)
				}
				bytesOut += cw.n
				stallNs += g.Stats().CheckpointStallNanos
			}
			b.StopTimer()
			close(stop)
			<-producerDone
			b.ReportMetric(float64(stallNs)/float64(b.N), "stallNs/op")
			b.ReportMetric(float64(bytesOut)/b.Elapsed().Seconds()/1e6, "MB/s")
		})
	}
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkRestore measures checkpoint decode: the streaming io.Reader
// path and the footer-driven parallel OpenCheckpoint path over the same
// file.
func BenchmarkRestore(b *testing.B) {
	g := benchCheckpointGraph(b)
	path := filepath.Join(b.TempDir(), "bench.gze3")
	if err := g.SaveCheckpoint(path); err != nil {
		b.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			back, err := graphzeppelin.ReadCheckpoint(bytes.NewReader(blob))
			if err != nil {
				b.Fatal(err)
			}
			back.Close()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			back, err := graphzeppelin.OpenCheckpoint(path, graphzeppelin.WithShards(2))
			if err != nil {
				b.Fatal(err)
			}
			back.Close()
		}
	})
}

// BenchmarkMergeCheckpoint measures the streaming zero-alloc merge: a
// checkpoint held in memory is XORed into a live graph. allocs/op is the
// headline — it must stay a small constant (pooled buffers, one bufio
// fill) regardless of node count, i.e. zero allocations per sketch.
// Merging the same checkpoint repeatedly just toggles the XOR state, so
// the graph stays valid across iterations.
func BenchmarkMergeCheckpoint(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts func(b *testing.B) []graphzeppelin.Option
	}{
		{"ram", func(*testing.B) []graphzeppelin.Option { return nil }},
		{"disk", func(b *testing.B) []graphzeppelin.Option {
			return []graphzeppelin.Option{graphzeppelin.WithSketchesOnDisk(b.TempDir())}
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			g := benchCheckpointGraph(b, mode.opts(b)...)
			var buf bytes.Buffer
			if err := g.WriteCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
			blob := buf.Bytes()
			// Reuse one bufio.Reader so the benchmark measures the merge,
			// not reader construction; the engine reads through it as is.
			br := bufio.NewReaderSize(nil, 1<<16)
			src := bytes.NewReader(blob)
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(blob)
				br.Reset(src)
				if err := g.MergeCheckpoint(br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
