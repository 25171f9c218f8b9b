package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/kron"
)

// childEnv, when set, makes the test binary act as gzserve: TestMain
// hands its arguments to run() instead of running the tests, so the
// process tests launch real gzserve processes without a separate build.
const childEnv = "GZSERVE_TEST_AS_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		log.SetFlags(0)
		log.SetPrefix("gzserve: ")
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// proc is one gzserve process; done closes once it has been reaped.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	url  string
}

// launch starts gzserve on addr and waits until it publishes its address.
// A restart binds the address of a process just killed, which the kernel
// may still hold for a moment, so a process that exits before publishing
// is relaunched until a deadline. Every process is SIGKILLed when the
// test ends.
func launch(t *testing.T, dir, name, addr string, args ...string) *proc {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		cmd := exec.Command(bin, append(args, "-listen", addr, "-addr-file", addrFile)...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		p := &proc{cmd: cmd, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		t.Cleanup(p.kill)
		if p.awaitAddr(addrFile, deadline) {
			return p
		}
		p.kill()
		if time.Now().After(deadline) {
			t.Fatalf("gzserve %s did not come up on %s:\n%s", name, addr, readLog(dir, name))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// awaitAddr polls addrFile until the process publishes its address
// (true), exits, or the deadline passes.
func (p *proc) awaitAddr(addrFile string, deadline time.Time) bool {
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.url = "http://" + string(b)
			return true
		}
		select {
		case <-p.done:
			return false
		case <-time.After(25 * time.Millisecond):
		}
	}
	return false
}

// kill SIGKILLs the process and reaps it; it is a no-op once reaped.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

func readLog(dir, name string) string {
	b, _ := os.ReadFile(filepath.Join(dir, name+".log"))
	return string(b)
}

func samePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[uint32]uint32)
	bwd := make(map[uint32]uint32)
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := bwd[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// TestDurableWorkerSurvivesSIGKILL runs a 2-worker cluster as three
// gzserve processes and SIGKILLs the durable worker 0 while the
// coordinator still has sends in flight to it. The worker restarts on the
// same address and state dir; the coordinator's retries ride out the
// outage, and the recovered dedup gate drops the retried batches the dead
// process had already logged. The merged answer must equal one engine
// over the whole stream, with no update lost or applied twice.
func TestDurableWorkerSurvivesSIGKILL(t *testing.T) {
	const seed = 7
	res := kron.ToStream(kron.DenseKronecker(8, seed), 1<<8, kron.StreamOptions{}, seed+1)
	nodes := fmt.Sprint(res.NumNodes)

	ref, err := core.NewEngine(core.Config{NumNodes: res.NumNodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(res.Updates); err != nil {
		t.Fatal(err)
	}
	refRep, refCount, err := ref.ConnectedComponents()
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stateDir := filepath.Join(dir, "w0-state")
	w0Args := []string{"-mode", "worker", "-nodes", nodes, "-seed", fmt.Sprint(seed),
		"-worker-index", "0", "-worker-count", "2", "-state-dir", stateDir, "-fsync", "batch"}
	w0 := launch(t, dir, "w0", "127.0.0.1:0", w0Args...)
	w1 := launch(t, dir, "w1", "127.0.0.1:0", "-mode", "worker", "-nodes", nodes,
		"-seed", fmt.Sprint(seed), "-worker-index", "1", "-worker-count", "2")
	// Small dispatch batches so the kill lands with sends behind it, and a
	// retry budget whose backoff (25ms doubling, 1s cap) outlasts the
	// restart.
	co := launch(t, dir, "co", "127.0.0.1:0", "-mode", "coordinator", "-nodes", nodes,
		"-seed", fmt.Sprint(seed), "-workers", w0.url+","+w1.url,
		"-batch", "512", "-window", "4", "-attempts", "12")
	defer func() {
		if t.Failed() {
			for _, name := range []string{"w0", "w1", "co"} {
				t.Logf("%s log:\n%s", name, readLog(dir, name))
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drv := gzserve.NewClient(co.url, gzserve.ClientConfig{MaxInFlight: 4})
	if _, err := drv.Info(ctx); err != nil {
		t.Fatalf("coordinator handshake: %v", err)
	}
	send := func(lo, hi int) {
		for off := lo; off < hi; off += 2048 {
			drv.SendAsync(ctx, res.Updates[off:min(off+2048, hi)])
		}
	}

	// Once worker 0 has applied (and logged) a few batches of the first
	// quarter, the second quarter goes out and worker 0 is killed at once:
	// the restart has a WAL suffix to replay, and the second quarter's
	// sends meet a dead worker, which may have logged some of them
	// without acking them.
	quarter, half := len(res.Updates)/4, len(res.Updates)/2
	send(0, quarter)
	w0c := gzserve.NewClient(w0.url, gzserve.ClientConfig{})
	var applied uint64
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, err := w0c.WorkerStatsz(ctx); err == nil {
			applied = st.Batches
		}
		if applied >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker 0 applied %d batches in 30s", applied)
		}
	}
	send(quarter, half)
	w0.kill()
	// Restart at once: the coordinator's windows stall against a dead
	// worker, so waiting here would only spend the retry budget.
	w0 = launch(t, dir, "w0", strings.TrimPrefix(w0.url, "http://"), w0Args...)
	send(half, len(res.Updates))
	if err := drv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var refresh struct {
		MergedUpdates uint64 `json:"merged_updates"`
	}
	postJSON(t, co.url+gzserve.PathRefresh, &refresh)
	if refresh.MergedUpdates != uint64(len(res.Updates)) {
		t.Errorf("merged_updates = %d, want the stream length %d", refresh.MergedUpdates, len(res.Updates))
	}
	var comp struct {
		Count int      `json:"count"`
		Rep   []uint32 `json:"rep"`
	}
	getJSON(t, co.url+gzserve.PathComponents, &comp)
	w0st, err := w0c.WorkerStatsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var cst gzserve.CoordStats
	getJSON(t, co.url+gzserve.PathStatsz, &cst)
	var retries, dups uint64
	for _, w := range cst.Workers {
		retries += w.Retries
		dups += w.Duplicates
	}
	t.Logf("killed after %d applied batches; recovered %d batches; %d retries, %d duplicates dropped",
		applied, w0st.RecoveredBatches, retries, dups)

	if comp.Count != refCount || !samePartition(comp.Rep, refRep) {
		t.Errorf("cluster partition (%d components) differs from one engine over the stream (%d components)",
			comp.Count, refCount)
	}
	if w0st.RecoveredBatches == 0 {
		t.Errorf("restarted worker 0 recovered no batches from its WAL")
	}
}

func postJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, v)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, v)
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: HTTP %d: %s", resp.Request.URL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", resp.Request.URL, err)
	}
}
