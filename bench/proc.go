package main

import (
	"context"
	"encoding/json"
	"errors"
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
	"time"
)

// children tracks every process the benchmark starts, so that each exit
// path — normal return, error, SIGINT/SIGTERM or panic — can kill them
// and wait for them to end.
type children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

var procs = &children{live: map[*child]struct{}{}}

// child is one started daemon.
type child struct {
	name string
	bin  string
	args []string
	url  string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// freePorts asks the kernel for n unused loopback ports. It holds every
// listener open until all n are chosen: a port closed at once can come
// back from the next request, and two daemons given one port would let
// the one that binds answer for the other.
func freePorts(n int) ([]int, error) {
	var ports []int
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// ctl is the control-plane client for health polls, identity checks and
// oracle reads; it keeps no idle connections, so outside the measured
// windows it holds at most one connection at a time.
var ctl = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// start launches bin with args plus -addr on a fresh port. It first checks
// that nothing answers on that port, so a stale process from an earlier
// run can never pass for this one.
func (p *children) start(logDir, name, bin string, port int, args ...string) (*child, error) {
	url := "http://127.0.0.1:" + strconv.Itoa(port)
	if resp, err := ctl.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: port %d already answers before start", name, port)
	}
	full := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, bin: bin, args: args, url: url, cmd: cmd, done: make(chan struct{})}
	p.mu.Lock()
	p.live[c] = struct{}{}
	p.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (p *children) kill(c *child) {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.done
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
}

func (p *children) killAll() {
	p.mu.Lock()
	var all []*child
	for c := range p.live {
		all = append(all, c)
	}
	p.mu.Unlock()
	for _, c := range all {
		p.kill(c)
	}
}

// waitReady polls path (a readiness endpoint answering 200) every
// millisecond until it answers, the child exits, or the deadline passes.
func waitReady(ctx context.Context, c *child, path string) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		if !c.alive() {
			return fmt.Errorf("%s exited before becoming ready (see its log)", c.name)
		}
		if resp, err := ctl.Get(c.url + path); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 120s", c.name)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// getJSON fetches url with the control client and decodes the body.
func getJSON(url string, v any) error {
	resp, err := ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonStats is the part of cscd's /stats the benchmark reads.
type daemonStats struct {
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	LabelBytes int    `json:"label_bytes"`
	Snapshots  uint64 `json:"snapshots"`
}

// verifyIdentity checks that the process answering c.url is c and serves
// the expected graph: the child is still alive and its /stats (a
// router's /cluster/table) reports n vertices.
func verifyIdentity(c *child, n int) error {
	if !c.alive() {
		return fmt.Errorf("%s answered but is not running: another process holds its port", c.name)
	}
	got := 0
	if strings.HasSuffix(c.bin, "cscrouter") {
		var t struct {
			Table struct {
				Vertices int `json:"vertices"`
			} `json:"table"`
		}
		if err := getJSON(c.url+"/cluster/table", &t); err != nil {
			return err
		}
		got = t.Table.Vertices
	} else {
		var st daemonStats
		if err := getJSON(c.url+"/stats", &st); err != nil {
			return err
		}
		got = st.Vertices
	}
	if got != n {
		return fmt.Errorf("%s reports %d vertices, want %d: not this run's process", c.name, got, n)
	}
	return nil
}

// vmRSS reads the child's resident set size in bytes.
func vmRSS(c *child) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// sampleRSS sums the children's resident sets every 100ms until stop is
// closed, and returns the samples in MB.
func sampleRSS(cs []*child, stop <-chan struct{}) ([]float64, error) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var out []float64
	for {
		var sum int64
		for _, c := range cs {
			rss, err := vmRSS(c)
			if err != nil {
				return nil, err
			}
			sum += rss
		}
		out = append(out, float64(sum)/(1<<20))
		select {
		case <-stop:
			return out, nil
		case <-tick.C:
		}
	}
}

// reboot kills c and starts the same command on the same port, returning
// the new child and the time from the kill to readiness.
func (p *children) reboot(ctx context.Context, logDir string, c *child, readyPath string, n int) (*child, time.Duration, error) {
	port, err := strconv.Atoi(c.url[strings.LastIndexByte(c.url, ':')+1:])
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p.kill(c)
	nc, err := p.start(logDir, c.name, c.bin, port, c.args...)
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, nc, readyPath); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	return nc, d, verifyIdentity(nc, n)
}

// sigCleanup kills every child when the benchmark is interrupted.
func sigCleanup(ch <-chan os.Signal) {
	sig := <-ch
	procs.killAll()
	fmt.Fprintf(os.Stderr, "cyclebench: %v: children stopped\n", sig)
	os.Exit(2)
}
