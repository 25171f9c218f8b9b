package cubesketch

import (
	"fmt"
	"testing"
)

func benchIndices(n uint64, count int) []uint64 {
	idxs := make([]uint64, count)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range idxs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idxs[i] = x % n
	}
	return idxs
}

func BenchmarkUpdate(b *testing.B) {
	for _, n := range []uint64{1e6, 1e9, 1e12} {
		b.Run(fmt.Sprintf("n=1e%d", exp10(n)), func(b *testing.B) {
			s := New(n, 0, 1)
			idxs := benchIndices(n, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(idxs[i%len(idxs)])
			}
		})
	}
}

// benchSizes are the batch lengths the kernel benchmarks sweep: size=10 is
// what a 1 % serve slice leaves per node before a query forces the flush,
// size=5500 a full leaf gutter.
var benchSizes = []int{4, 10, 40, 128, 1000, 5500}

// benchGeometry returns the scale-11 engine geometry: its vector length
// and its 13 round seeds, for 2 048 nodes.
func benchGeometry() (nodes int, n uint64, seeds []uint64) {
	const rounds = 13
	nodes = 2048
	seeds = make([]uint64, rounds)
	for r := range seeds {
		seeds[r] = uint64(r+1) * 0x51ed270693a3f
	}
	return nodes, uint64(nodes * (nodes - 1) / 2), seeds
}

// BenchmarkSlabApply sweeps the bucket-XOR kernel over batch lengths on
// the scale-11 engine geometry (2 048 nodes × 13 rounds × 7 columns × 23
// rows, a 50 MB arena — an order of magnitude past L2), a different node
// every iteration so each call starts on cold buckets, as a Graph Worker's
// does.
func BenchmarkSlabApply(b *testing.B) {
	nodes, n, seeds := benchGeometry()
	sl := NewSlab(nodes, n, 0, seeds)
	pool := benchIndices(n, 1<<16)
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			off := 0
			for i := 0; i < b.N; i++ {
				sl.Apply(i%nodes, pool[off:off+size])
				if off += size; off+size > len(pool) {
					off = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/index")
		})
	}
}

// BenchmarkApplyNodeBinary is BenchmarkSlabApply over serialized stacks
// (Slab.ApplyNodeBinary), the kernel of an out-of-core cold query's
// leftover apply and of a capture log's conversion into an image: the
// same geometry, sizes and cold start, 2 048 stacks of 25.5 KB.
func BenchmarkApplyNodeBinary(b *testing.B) {
	nodes, n, seeds := benchGeometry()
	geometry := NewSlab(0, n, 0, seeds)
	slot := geometry.NodeSize()
	buf := make([]byte, nodes*slot)
	NewSlab(1, n, 0, seeds).MarshalNode(0, buf)
	for i := 1; i < nodes; i++ {
		copy(buf[i*slot:(i+1)*slot], buf[:slot])
	}
	pool := benchIndices(n, 1<<16)
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			off := 0
			for i := 0; i < b.N; i++ {
				node := i % nodes
				if err := geometry.ApplyNodeBinary(buf[node*slot:(node+1)*slot], pool[off:off+size]); err != nil {
					b.Fatal(err)
				}
				if off += size; off+size > len(pool) {
					off = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/index")
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	a := New(1e9, 0, 1)
	c := New(1e9, 0, 1)
	for _, idx := range benchIndices(1e9, 1000) {
		c.Update(idx)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	s := New(1e9, 0, 1)
	for _, idx := range benchIndices(1e9, 100) {
		s.Update(idx)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	s := New(1e9, 0, 1)
	for _, idx := range benchIndices(1e9, 1000) {
		s.Update(idx)
	}
	buf := make([]byte, s.SerializedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MarshalInto(buf)
	}
	b.SetBytes(int64(len(buf)))
}

func exp10(n uint64) int {
	e := 0
	for n >= 10 {
		n /= 10
		e++
	}
	return e
}
