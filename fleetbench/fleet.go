package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	shardCount   = 2
	readyTimeout = 30 * time.Second
	stopGrace    = 5 * time.Second
	launchTries  = 5
)

// proc is one fleet process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been waited for
	err  error
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tail returns the end of the process's log, for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// fleet is a router in front of shard daemons, each its own process on
// loopback.
type fleet struct {
	procs     []*proc // shards first, router last
	shards    []string
	debug     []string
	routerURL string
}

// startFleet launches the shards, waits until each answers /readyz,
// then launches the router and waits until it sees every shard. A
// launch that loses a port race is retried on fresh ports.
func startFleet(ctx context.Context, bin, logDir string) (*fleet, error) {
	var lastErr error
	for try := 0; try < launchTries; try++ {
		f, err := launchFleet(ctx, bin, logDir)
		if err == nil {
			return f, nil
		}
		f.stop()
		lastErr = err
		if !errors.Is(err, errPortTaken) {
			break
		}
	}
	return nil, lastErr
}

var errPortTaken = errors.New("port taken")

func launchFleet(ctx context.Context, bin, logDir string) (*fleet, error) {
	ports, err := freePorts(2*shardCount + 1)
	if err != nil {
		return &fleet{}, err
	}
	f := &fleet{}
	for i := 0; i < shardCount; i++ {
		addr, dbg := fmt.Sprintf("127.0.0.1:%d", ports[2*i]), fmt.Sprintf("127.0.0.1:%d", ports[2*i+1])
		p, err := spawn(filepath.Join(bin, "rebalanced"), logDir, fmt.Sprintf("shard%d", i),
			"-addr", addr, "-debug-addr", dbg, "-shard-id", fmt.Sprintf("s%d", i))
		if err != nil {
			return f, err
		}
		f.procs = append(f.procs, p)
		f.shards = append(f.shards, "http://"+addr)
		f.debug = append(f.debug, "http://"+dbg)
	}
	for i, u := range f.shards {
		if err := waitReady(ctx, f.procs[i], u, 0); err != nil {
			return f, err
		}
	}
	raddr := fmt.Sprintf("127.0.0.1:%d", ports[2*shardCount])
	p, err := spawn(filepath.Join(bin, "rebalrouter"), logDir, "router",
		"-addr", raddr, "-shards", strings.Join(f.shards, ","))
	if err != nil {
		return f, err
	}
	f.procs = append(f.procs, p)
	f.routerURL = "http://" + raddr
	return f, waitReady(ctx, p, f.routerURL, shardCount)
}

// freePorts reserves n distinct loopback ports and releases them for
// the daemons to bind; a port another process grabs in between shows
// up as an early exit and a retried launch.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

func spawn(path, logDir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills a daemon whose benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf.Name(), done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200 (and, for the router,
// until /healthz counts wantShards healthy shards). It fails at once if
// the process exits.
func waitReady(ctx context.Context, p *proc, base string, wantShards int) error {
	deadline := time.Now().Add(readyTimeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		if p.exited() {
			if strings.Contains(p.tail(), "address already in use") {
				return fmt.Errorf("%s: %w", p.name, errPortTaken)
			}
			return fmt.Errorf("%s exited during start-up (%v): %s", p.name, p.err, p.tail())
		}
		if ready(hc, base, wantShards) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %s", p.name, readyTimeout, p.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func ready(hc *http.Client, base string, wantShards int) bool {
	resp, err := hc.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if wantShards == 0 {
		return true
	}
	resp, err = hc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Healthy int `json:"healthy_shards"`
	}
	return json.NewDecoder(resp.Body).Decode(&h) == nil && h.Healthy == wantShards
}

// alive fails if any fleet process has exited.
func (f *fleet) alive() error {
	for _, p := range f.procs {
		if p.exited() {
			return fmt.Errorf("%s exited early (%v): %s", p.name, p.err, p.tail())
		}
	}
	return nil
}

// stop sends SIGTERM to every process, escalates to SIGKILL after the
// grace period, and returns once each has been waited for.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, p := range f.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	timeout := time.After(stopGrace)
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-timeout:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	f.procs = nil
}

// Readings from /proc, the outside view of the fleet's cost.

// cpuTicks is a process's user plus system CPU in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime the 12th and stime the 13th.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + s, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times, fixed at 100 on
// Linux.
const clockTick = 10 * time.Millisecond

func (f *fleet) cpu() (time.Duration, error) {
	var total int64
	for _, p := range f.procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return time.Duration(total) * clockTick, nil
}

// rss sums the fleet's resident memory in bytes: the current VmRSS, or
// the peak VmHWM.
func (f *fleet) rss(key string) (int64, error) {
	var total int64
	for _, p := range f.procs {
		kb, err := statusField(p.cmd.Process.Pid, key)
		if err != nil {
			return 0, err
		}
		total += kb << 10
	}
	return total, nil
}

func statusField(pid int, key string) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// stealTicks is the host-wide steal time from /proc/stat: CPU the
// hypervisor gave to someone else.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("unexpected /proc/stat layout")
	}
	return strconv.ParseInt(f[8], 10, 64)
}
