package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"graphzeppelin/internal/stream"
)

// File names of a saved input set.
const (
	streamFile  = "stream.gzs"
	flipFile    = "flip.bits"
	trickleFile = "trickles.gzs"
)

// Inputs is everything a measured process loads: one pass of the stream,
// the even-pass flip bits, and the trickle batches.
type Inputs struct {
	NumNodes uint32
	Updates  []stream.Update
	Flip     Bits
	Trickles [][]stream.Update
}

func writeStream(path string, numNodes uint32, ups []stream.Update) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w, err := stream.NewWriter(f, numNodes, uint64(len(ups)))
	if err != nil {
		return err
	}
	for _, u := range ups {
		if err := w.Write(u); err != nil {
			return err
		}
	}
	return w.Flush()
}

func readStream(path string) (uint32, []stream.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	r, err := stream.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	ups, err := r.ReadAll()
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r.Header().NumNodes, ups, nil
}

// Save writes an input set into dir.
func Save(dir string, in Inputs) error {
	if err := writeStream(filepath.Join(dir, streamFile), in.NumNodes, in.Updates); err != nil {
		return err
	}
	flip := make([]byte, 8*len(in.Flip))
	for i, w := range in.Flip {
		binary.LittleEndian.PutUint64(flip[8*i:], w)
	}
	if err := os.WriteFile(filepath.Join(dir, flipFile), flip, 0o644); err != nil {
		return err
	}
	var all []stream.Update
	for _, t := range in.Trickles {
		all = append(all, t...)
	}
	return writeStream(filepath.Join(dir, trickleFile), in.NumNodes, all)
}

// Load reads the input set Save wrote into dir; every trickle has
// trickleSize updates.
func Load(dir string, trickleSize int) (Inputs, error) {
	var in Inputs
	var err error
	if in.NumNodes, in.Updates, err = readStream(filepath.Join(dir, streamFile)); err != nil {
		return in, err
	}
	flip, err := os.ReadFile(filepath.Join(dir, flipFile))
	if err != nil {
		return in, err
	}
	if len(flip) != 8*((len(in.Updates)+63)/64) {
		return in, fmt.Errorf("%s: %d bytes for %d updates", flipFile, len(flip), len(in.Updates))
	}
	in.Flip = make(Bits, len(flip)/8)
	for i := range in.Flip {
		in.Flip[i] = binary.LittleEndian.Uint64(flip[8*i:])
	}
	_, all, err := readStream(filepath.Join(dir, trickleFile))
	if err != nil {
		return in, err
	}
	if len(all)%trickleSize != 0 {
		return in, fmt.Errorf("%s: %d updates do not split into trickles of %d", trickleFile, len(all), trickleSize)
	}
	for off := 0; off < len(all); off += trickleSize {
		in.Trickles = append(in.Trickles, all[off:off+trickleSize])
	}
	return in, nil
}
