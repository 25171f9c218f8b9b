package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/gzserve"
	"graphzeppelin/internal/kron"
)

// DistServe measures the networked distributed-ingestion service: a
// coordinator plus K workers on localhost, the full Kronecker stream
// driven through the coordinator's framed HTTP ingest endpoint, a
// checkpoint pull into the coordinator's view (refresh), and a global connectivity answer
// compared against a single engine that saw the whole stream. With
// Options.GzserveBin set, every role runs as its own gzserve process —
// the true multi-process topology CI exercises; otherwise the servers
// run in-process over real loopback HTTP.
func DistServe(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	mode := "in-process servers"
	if o.GzserveBin != "" {
		mode = fmt.Sprintf("processes via %s", o.GzserveBin)
	}
	t := &Table{
		ID:     "distserve",
		Title:  fmt.Sprintf("Networked distributed ingestion, gzserve cluster on localhost (kron%d, %s)", scale, mode),
		Header: []string{"workers", "ingest rate", "refresh", "merged updates", "batches", "retries", "dups", "vs reference"},
		Notes: []string{
			"stream driven through the coordinator's /v1/ingest (GZW1 frames over HTTP), each update to the workers owning its endpoints",
			"ingest rate = updates/sec of send+drain wall time, including partitioning, framing and acks",
			"refresh = POST /v1/refresh wall time: drain windows, pull every worker's checkpoint, stream each range into the view",
			"vs reference = coordinator's component partition equals a single engine over the whole stream",
		},
	}

	ref, _, err := runGZ(res, core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	refRep, refCount, err := ref.ConnectedComponents()
	ref.Close()
	if err != nil {
		return nil, err
	}

	for _, k := range []int{1, 2, 4} {
		row, err := runDistServeTrial(res, o, k, refRep, refCount)
		if err != nil {
			return nil, fmt.Errorf("distserve: workers=%d: %w", k, err)
		}
		t.Rows = append(t.Rows, row)
		o.logf("distserve: workers=%d done (%d updates)", k, len(res.Updates))
	}
	return t, nil
}

// distCluster abstracts the two launch modes behind the coordinator URL.
type distCluster interface {
	coordinatorURL() string
	shutdown() error
}

func runDistServeTrial(res kron.Result, o Options, k int, refRep []uint32, refCount int) ([]string, error) {
	var cl distCluster
	var err error
	if o.GzserveBin != "" {
		cl, err = launchProcCluster(o, res.NumNodes, k)
	} else {
		cl, err = launchInprocCluster(o, res.NumNodes, k)
	}
	if err != nil {
		return nil, err
	}
	defer cl.shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	drv := gzserve.NewClient(cl.coordinatorURL(), gzserve.ClientConfig{MaxInFlight: 4})
	if _, err := drv.Info(ctx); err != nil {
		return nil, fmt.Errorf("coordinator handshake: %w", err)
	}

	const batch = 2048
	start := time.Now()
	for off := 0; off < len(res.Updates); off += batch {
		end := off + batch
		if end > len(res.Updates) {
			end = len(res.Updates)
		}
		drv.SendAsync(ctx, res.Updates[off:end])
	}
	if err := drv.Drain(); err != nil {
		return nil, err
	}
	ingestDur := time.Since(start)

	refreshStart := time.Now()
	resp, err := http.Post(cl.coordinatorURL()+gzserve.PathRefresh, "application/json", nil)
	if err != nil {
		return nil, err
	}
	var refresh struct {
		MergedUpdates uint64 `json:"merged_updates"`
	}
	err = json.NewDecoder(resp.Body).Decode(&refresh)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	refreshDur := time.Since(refreshStart)

	resp, err = http.Get(cl.coordinatorURL() + gzserve.PathComponents)
	if err != nil {
		return nil, err
	}
	var comp struct {
		Count int      `json:"count"`
		Rep   []uint32 `json:"rep"`
	}
	err = json.NewDecoder(resp.Body).Decode(&comp)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("components: %w", err)
	}

	resp, err = http.Get(cl.coordinatorURL() + gzserve.PathStatsz)
	if err != nil {
		return nil, err
	}
	var st gzserve.CoordStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	var batches, retries, dups uint64
	for _, w := range st.Workers {
		batches += w.Batches
		retries += w.Retries
		dups += w.Duplicates
	}

	match := "MATCH"
	if comp.Count != refCount || !samePartition(comp.Rep, refRep) {
		match = "MISMATCH"
	}
	if refresh.MergedUpdates != uint64(len(res.Updates)) {
		match = fmt.Sprintf("LOST UPDATES (%d/%d)", refresh.MergedUpdates, len(res.Updates))
	}
	return []string{
		fmt.Sprintf("%d", k),
		rate(len(res.Updates), ingestDur),
		fmt.Sprintf("%.1f ms", float64(refreshDur.Nanoseconds())/1e6),
		fmt.Sprintf("%d", refresh.MergedUpdates),
		fmt.Sprintf("%d", batches),
		fmt.Sprintf("%d", retries),
		fmt.Sprintf("%d", dups),
		match,
	}, nil
}

// ---- in-process launch: real loopback HTTP, one process ----

type inprocCluster struct {
	workers  []*gzserve.Worker
	servers  []*http.Server
	co       *gzserve.Coordinator
	coSrv    *http.Server
	coordURL string
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func launchInprocCluster(o Options, numNodes uint32, k int) (*inprocCluster, error) {
	c := &inprocCluster{}
	part, err := gzserve.NewRangePartitioner(numNodes, k)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < k; i++ {
		lo, hi := part.Range(i)
		wk, werr := gzserve.NewWorker(core.Config{NumNodes: numNodes, Seed: o.Seed}, lo, hi)
		if werr != nil {
			c.shutdown()
			return nil, werr
		}
		srv, url, serr := serveOn(wk.Handler())
		if serr != nil {
			wk.Close()
			c.shutdown()
			return nil, serr
		}
		c.workers = append(c.workers, wk)
		c.servers = append(c.servers, srv)
		addrs = append(addrs, url)
	}
	co, err := gzserve.NewCoordinator(gzserve.CoordinatorConfig{
		Engine:  core.Config{NumNodes: numNodes, Seed: o.Seed},
		Workers: addrs,
	})
	if err != nil {
		c.shutdown()
		return nil, err
	}
	c.co = co
	srv, url, err := serveOn(co.Handler())
	if err != nil {
		c.shutdown()
		return nil, err
	}
	c.coSrv, c.coordURL = srv, url
	return c, nil
}

func (c *inprocCluster) coordinatorURL() string { return c.coordURL }

func (c *inprocCluster) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var first error
	if c.coSrv != nil {
		c.coSrv.Shutdown(ctx)
	}
	if c.co != nil {
		if err := c.co.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range c.servers {
		srv.Shutdown(ctx)
	}
	for _, wk := range c.workers {
		if err := wk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- multi-process launch: one gzserve process per role ----

type procCluster struct {
	procs    []*exec.Cmd
	dir      string
	coordURL string
}

// launchProc starts one gzserve process and waits for its addr file.
func launchProc(o Options, bin, dir, name string, args []string) (*exec.Cmd, string, error) {
	addrFile := filepath.Join(dir, name+".addr")
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0", "-addr-file", addrFile)...)
	if o.Verbose {
		cmd.Stderr = o.Progress
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + string(b), nil
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, "", fmt.Errorf("gzserve %s did not publish its address", name)
}

func launchProcCluster(o Options, numNodes uint32, k int) (*procCluster, error) {
	dir, err := os.MkdirTemp("", "distserve")
	if err != nil {
		return nil, err
	}
	c := &procCluster{dir: dir}
	nodes := fmt.Sprintf("%d", numNodes)
	seed := fmt.Sprintf("%d", o.Seed)
	var addrs string
	for i := 0; i < k; i++ {
		cmd, url, err := launchProc(o, o.GzserveBin, dir, fmt.Sprintf("worker%d", i), []string{
			"-mode", "worker", "-nodes", nodes, "-seed", seed,
			"-worker-index", fmt.Sprintf("%d", i), "-worker-count", fmt.Sprintf("%d", k),
		})
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.procs = append(c.procs, cmd)
		if i > 0 {
			addrs += ","
		}
		addrs += url
	}
	cmd, url, err := launchProc(o, o.GzserveBin, dir, "coordinator", []string{
		"-mode", "coordinator", "-nodes", nodes, "-seed", seed, "-workers", addrs,
	})
	if err != nil {
		c.shutdown()
		return nil, err
	}
	c.procs = append(c.procs, cmd)
	c.coordURL = url
	return c, nil
}

func (c *procCluster) coordinatorURL() string { return c.coordURL }

// shutdown SIGTERMs the coordinator first (it drains and ships a final
// merge), then the workers, reaping every process.
func (c *procCluster) shutdown() error {
	var first error
	for i := len(c.procs) - 1; i >= 0; i-- {
		p := c.procs[i]
		p.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil && first == nil {
				first = err
			}
		case <-time.After(20 * time.Second):
			p.Process.Kill()
			<-done
			if first == nil {
				first = fmt.Errorf("gzserve process %d needed SIGKILL", i)
			}
		}
	}
	os.RemoveAll(c.dir)
	return first
}
