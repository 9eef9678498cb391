package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	aqp "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// Data generation is fixed: the workload seed varies the query stream,
// never the data, so answers at one row count are comparable across seeds.
const (
	genSeed = 1
	genSkew = 1.0
)

// Server sizing: the sandbox has two cores, so two admission workers and
// two closed-loop clients keep both busy without queueing.
const (
	serverWorkers = 2
	serverQueue   = 8
	clientCount   = 2
)

const readyTimeout = 120 * time.Second

// live tracks every child process the harness has started and not yet
// reaped, so a failure or a signal anywhere can stop them all.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// proc is one child process: aqpd, or this binary re-executed as a shard
// server.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

func spawn(name, bin string, args ...string) (*proc, io.ReadCloser, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	setParentDeathSignal(p.cmd)
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()
	return p, out, nil
}

// reap waits for the process to end; call it exactly once per proc.
func (p *proc) reap() {
	p.cmd.Wait()
	close(p.done)
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down, kills it if it does not within the
// grace period, and returns once it has ended.
func (p *proc) stop(grace time.Duration) {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// killAll stops every live child at once; the signal handler and fatal
// paths use it.
func killAll() {
	live.mu.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Kill()
	}
	for _, p := range procs {
		<-p.done
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// topology is one booted set of server processes and the URL that takes
// queries.
type topology struct {
	procs []*proc
	url   string
	// setup is process start to ready, including sample build and
	// certification where the workload asks for it.
	setup time.Duration
}

func (t *topology) stop() {
	// The coordinator goes first so it stops probing shards that are gone.
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop(5 * time.Second)
	}
}

// rssMB sums peak RSS over all server processes.
func (t *topology) rssMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// buildAqpd compiles cmd/aqpd from the checkout into the build directory.
func buildAqpd(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "aqpd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aqpd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build aqpd: %w\n%s", err, out)
	}
	return bin, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// boot starts the workload's topology and returns once it answers
// queries. On error every process it started has been stopped.
func boot(cfg config, w workloadSpec, offlineProfile []string) (_ *topology, err error) {
	t := &topology{}
	defer func() {
		if err != nil {
			t.stop()
		}
	}()
	start := time.Now()

	args := []string{
		"-gen", strconv.Itoa(cfg.rows), "-gen-skew", fmt.Sprint(genSkew), "-seed", strconv.Itoa(genSeed),
		"-workers", strconv.Itoa(serverWorkers), "-queue", strconv.Itoa(serverQueue),
	}
	args = append(args, w.ServerArgs...)
	switch w.Topology {
	case "single":
	case "sharded4":
		args = append(args, "-shards", strconv.Itoa(shardCount), "-shard-key", shardKey, "-shard-table", shardTable)
	case "remote4":
		addrs, err := bootShardServers(cfg, t)
		if err != nil {
			return nil, err
		}
		args = append(args, "-remote-shards", shardTable+"="+strings.Join(addrs, ","), "-shard-key", shardKey)
	default:
		return nil, fmt.Errorf("unknown topology %q", w.Topology)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, out, err := spawn("aqpd", cfg.aqpd, append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, p)
	go func() {
		io.Copy(io.Discard, out)
		p.reap()
	}()
	t.url = "http://" + addr
	if err := waitHealthy(p, t.url); err != nil {
		return nil, err
	}
	if len(w.OfflineQCS) > 0 {
		if err := buildSamples(http.DefaultClient.Do, t.url, w.OfflineQCS, offlineProfile); err != nil {
			return nil, err
		}
	}
	t.setup = time.Since(start)
	return t, nil
}

// bootShardServers starts the four shard-server children in parallel and
// returns their URLs in shard order.
func bootShardServers(cfg config, t *topology) ([]string, error) {
	type ready struct {
		id   int
		addr string
		err  error
	}
	ch := make(chan ready, shardCount) // one send per shard
	for i := 0; i < shardCount; i++ {
		p, out, err := spawn(fmt.Sprintf("shard-%d", i), cfg.self,
			"-shard-child", strconv.Itoa(i), "-rows", strconv.Itoa(cfg.rows))
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		go func(i int) {
			sc := bufio.NewScanner(out)
			announced := false
			for sc.Scan() {
				if a, ok := strings.CutPrefix(sc.Text(), "SHARD-LISTENING "); ok && !announced {
					announced = true
					ch <- ready{id: i, addr: "http://" + a}
				}
			}
			p.reap()
			if !announced {
				ch <- ready{id: i, err: fmt.Errorf("shard server %d exited before listening:\n%s", i, p.stderr.String())}
			}
		}(i)
	}
	addrs := make([]string, shardCount)
	deadline := time.After(readyTimeout)
	for n := 0; n < shardCount; n++ {
		select {
		case r := <-ch:
			if r.err != nil {
				return nil, r.err
			}
			addrs[r.id] = r.addr
		case <-deadline:
			return nil, fmt.Errorf("shard servers not listening after %s", readyTimeout)
		}
	}
	return addrs, nil
}

func waitHealthy(p *proc, url string) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.stderr.String())
		}
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %s:\n%s", p.name, readyTimeout, p.stderr.String())
}

// buildSamples asks a server (real or in-process) to build the offline
// sample ladder on the fact table and certify it with the given queries;
// without the profile, mode=offline silently answers exactly.
func buildSamples(do func(*http.Request) (*http.Response, error), url string, qcs [][]string, profile []string) error {
	body, err := json.Marshal(server.BuildSamplesRequest{Table: shardTable, QCS: qcs, Profile: profile})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/samples/build", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := do(req)
	if err != nil {
		return fmt.Errorf("samples/build: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("samples/build: status %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// generateStar builds the data set every process of a topology holds.
func generateStar(rows int) (*workload.Star, error) {
	return workload.GenerateStar(workload.Config{Seed: genSeed, LineitemRows: rows, Skew: genSkew})
}

func shardKeySpec() aqp.ShardKey {
	return aqp.ShardKey{Column: shardKey, Kind: aqp.ShardHash, Count: shardCount}
}

// runShardChild is the re-exec target of the remote topology: generate the
// same data as the coordinator, carve out partition id, and serve it over
// the shard wire protocol until told to stop. aqpd -shard-serve cannot
// partition, so the harness wraps server.NewShardServer itself, as
// aqpbench -remote does.
func runShardChild(id, rows int) error {
	star, err := generateStar(rows)
	if err != nil {
		return err
	}
	g, err := aqp.Open(star.Catalog).ShardTable(shardTable, shardKeySpec())
	if err != nil {
		return err
	}
	ss := server.NewShardServer(g.ShardTable(id), server.ShardServerConfig{ShardID: id, Table: shardTable})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: ss.Handler()}
	ctx, cancel := signalContext()
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("SHARD-LISTENING %s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shut, cancelShut := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelShut()
	return srv.Shutdown(shut)
}
