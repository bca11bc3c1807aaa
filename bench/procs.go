package main

import (
	"bytes"
	"context"
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

// topology says which fpserver processes a workload runs against.
type topology int

const (
	single topology = iota // one fpserver
	spill                  // one fpserver with a 256 KiB store budget and a spill dir
	fleet                  // a coordinator and two -worker processes, one core each
)

// spillBudget is the RAM budget of the spill topology: the revisit working
// set (~2 MB of basis vectors) is about seven times larger.
const spillBudget = 256 << 10

// proc is one fpserver child process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer
}

// cluster is the set of fresh server processes one round runs against.
// procs[0] is the one the client talks to.
type cluster struct {
	procs    []*proc
	spillDir string
}

func (c *cluster) baseURL() string { return "http://" + c.procs[0].addr }

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startProc(ctx context.Context, bin string, gomaxprocs int, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{addr: addr}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	p.cmd.Stdout = &p.log
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	if err := p.waitHealthy(ctx); err != nil {
		p.stop()
		return nil, fmt.Errorf("%w\n%s", err, p.log.String())
	}
	return p, nil
}

func (p *proc) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fpserver on %s not healthy: %w", p.addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the process to shut down, waits for it, and kills it if it
// does not go within five seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // a non-zero exit of a server we are discarding changes nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// startCluster spawns fresh server processes for one round. worlds is the
// servers' -worlds default; tmp is a directory spill files may go under.
func startCluster(ctx context.Context, bin string, topo topology, worlds int, tmp string) (*cluster, error) {
	c := &cluster{}
	w := strconv.Itoa(worlds)
	switch topo {
	case fleet:
		var urls []string
		for range 2 {
			p, err := startProc(ctx, bin, 1, "-worker", "-worlds", w)
			if err != nil {
				c.stop()
				return nil, err
			}
			c.procs = append(c.procs, p)
			urls = append(urls, "http://"+p.addr)
		}
		p, err := startProc(ctx, bin, 1, "-worlds", w, "-workers", strings.Join(urls, ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append([]*proc{p}, c.procs...)
	default:
		args := []string{"-worlds", w}
		if topo == spill {
			dir, err := os.MkdirTemp(tmp, "spill-")
			if err != nil {
				return nil, err
			}
			c.spillDir = dir
			args = append(args, "-store-budget", strconv.Itoa(spillBudget), "-spill-dir", dir)
		}
		p, err := startProc(ctx, bin, min(nproc(), 2), args...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = []*proc{p}
	}
	return c, nil
}

// stop ends every process of the cluster and removes its spill files.
func (c *cluster) stop() {
	for _, p := range c.procs {
		p.stop()
	}
	if c.spillDir != "" {
		os.RemoveAll(c.spillDir)
	}
}

func (c *cluster) logs() string {
	var b strings.Builder
	for _, p := range c.procs {
		b.Write(p.log.Bytes())
	}
	return b.String()
}

// sumProc reads /proc/<pid>/<file> of every process of the cluster and adds
// up what parse finds there.
func (c *cluster) sumProc(file string, parse func(string) (int64, error)) (float64, error) {
	var total int64
	for _, p := range c.procs {
		data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), file))
		if err != nil {
			return 0, err
		}
		v, err := parse(string(data))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return float64(total), nil
}

// cpuSeconds is the user+system CPU time all the cluster's processes have
// used so far, from /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (c *cluster) cpuSeconds() (float64, error) {
	ticks, err := c.sumProc("stat", parseStatTicks)
	return ticks / clockTicksPerSecond, err
}

// clockTicksPerSecond is USER_HZ, which is 100 on every Linux platform Go
// supports; the kernel reports /proc times in it whatever CONFIG_HZ is.
const clockTicksPerSecond = 100

// parseStatTicks returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// rssPeakMB is the sum of the processes' peak resident set sizes (VmHWM).
func (c *cluster) rssPeakMB() (float64, error) {
	kb, err := c.sumProc("status", parseVmHWM)
	return kb / 1024, err
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
