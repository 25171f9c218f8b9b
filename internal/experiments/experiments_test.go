package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// smallOpts keeps the experiment smoke tests fast.
func smallOpts() Options {
	return Options{MaxScale: 7, Trials: 2, Seed: 3}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestKronStreamCached(t *testing.T) {
	a := KronStream(6, 77)
	b := KronStream(6, 77)
	if &a.Updates[0] != &b.Updates[0] {
		t.Fatal("KronStream did not cache")
	}
}

func TestFig5Rows(t *testing.T) {
	tab := Fig5(smallOpts())
	if len(tab.Rows) != len(Fig4Lengths) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(Fig4Lengths))
	}
	// The size-reduction shape: ~2x below the 128-bit threshold, ~4x at
	// and above 1e10.
	parseRatio := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			t.Fatalf("bad ratio %q", s)
		}
		return v
	}
	if r := parseRatio(tab.Rows[0][3]); r < 1.5 || r > 2.5 {
		t.Fatalf("small-vector reduction %v, want ~2x", r)
	}
	if r := parseRatio(tab.Rows[len(tab.Rows)-1][3]); r < 3.5 || r > 4.5 {
		t.Fatalf("large-vector reduction %v, want ~4x", r)
	}
}

func TestSketchRatesShape(t *testing.T) {
	cube, std := SketchRates(1e6, 20000, 2000, 1)
	if cube <= std {
		t.Fatalf("CubeSketch (%.0f/s) not faster than standard l0 (%.0f/s)", cube, std)
	}
}

func TestTable10(t *testing.T) {
	tab := Table10(smallOpts())
	if len(tab.Rows) < 4 {
		t.Fatalf("too few datasets: %d", len(tab.Rows))
	}
}

func TestSystemExperimentsRun(t *testing.T) {
	o := smallOpts()
	if _, err := Fig11(o); err != nil {
		t.Fatalf("fig11: %v", err)
	}
	if _, err := Fig13(o); err != nil {
		t.Fatalf("fig13: %v", err)
	}
}

func TestReliabilityZeroFailures(t *testing.T) {
	o := smallOpts()
	_, results, err := Reliability(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("datasets = %d, want 5", len(results))
	}
	for _, r := range results {
		if r.Failures != 0 {
			t.Fatalf("%s: %d failures in %d checks", r.Dataset, r.Failures, r.Checks)
		}
	}
}

func TestSamePartitionHelper(t *testing.T) {
	if !samePartition([]uint32{0, 0, 2}, []uint32{5, 5, 9}) {
		t.Fatal("equivalent partitions rejected")
	}
	if samePartition([]uint32{0, 0, 2}, []uint32{5, 6, 9}) {
		t.Fatal("split partition accepted")
	}
	if samePartition([]uint32{0, 1}, []uint32{5, 5}) {
		t.Fatal("merged partition accepted")
	}
	if samePartition([]uint32{0}, []uint32{0, 1}) {
		t.Fatal("length mismatch accepted")
	}
}
