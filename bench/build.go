package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// checkout locates the tree the benchmark runs in.
type checkout struct {
	root string // the fuzzyprophet module: cmd/fpserver lives here
}

func (c checkout) benchDir() string { return filepath.Join(c.root, "bench") }
func (c checkout) buildDir() string { return filepath.Join(c.root, ".bench_build") }
func (c checkout) outDir() string   { return filepath.Join(c.benchDir(), "out") }

// findCheckout accepts the repo root or bench/ as the working directory.
func findCheckout() (checkout, error) {
	wd, err := os.Getwd()
	if err != nil {
		return checkout{}, err
	}
	for _, root := range []string{wd, filepath.Dir(wd)} {
		if isDir(filepath.Join(root, "cmd", "fpserver")) && isDir(filepath.Join(root, "bench", "layerprobe")) {
			return checkout{root: root}, nil
		}
	}
	return checkout{}, fmt.Errorf("no fuzzyprophet checkout at %s: run `bash bench/run.sh` from the repo root", wd)
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// goBuild compiles pkg (relative to dir) into the build directory. The go
// command's own cache makes an unchanged rebuild a fraction of a second.
func (c checkout) goBuild(ctx context.Context, dir, pkg, name string, flags ...string) (string, error) {
	out := filepath.Join(c.buildDir(), "bin", name)
	args := append(append([]string{"build"}, flags...), "-o", out, pkg)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go %s in %s: %w\n%s", strings.Join(args, " "), dir, err, msg)
	}
	return out, nil
}

// buildServer builds cmd/fpserver from the tree. Build time is logged and
// is not part of setup_s.
func (c checkout) buildServer(ctx context.Context) (env, error) {
	start := time.Now()
	bin, err := c.goBuild(ctx, c.root, "./cmd/fpserver", "fpserver")
	if err != nil {
		return env{}, err
	}
	tmp := filepath.Join(c.buildDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return env{}, err
	}
	logf("built fpserver in %.1fs", time.Since(start).Seconds())
	return env{fpserver: bin, tmp: tmp}, nil
}

// runProbes builds bench/layerprobe and runs it. The probes call internal
// packages directly, so they sit behind a build tag in a main of their
// own: if a later tree no longer compiles them, their metrics go missing
// and nothing else is affected.
func (c checkout) runProbes(ctx context.Context) (map[string]float64, error) {
	bin, err := c.goBuild(ctx, c.benchDir(), "./layerprobe", "layerprobe", "-tags", "fpbench_probe")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layerprobe: %w", err)
	}
	var m map[string]float64
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("layerprobe output: %w", err)
	}
	return m, nil
}

func nproc() int { return runtime.NumCPU() }

// meta records where and on what a result was measured.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"server_gomaxprocs"`
	Load1      float64 `json:"load1_at_start"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	StartedAt  string  `json:"started_at"`
}

func (c checkout) newMeta(ctx context.Context, seed uint64, seconds float64, runs int) meta {
	m := meta{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: nproc(), GOMAXPROCS: min(nproc(), 2),
		Seed: seed, Seconds: seconds, Runs: runs, StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = c.root
	if out, err := cmd.Output(); err == nil { // not a git checkout: stays "unknown"
		m.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			m.Load1, _ = strconv.ParseFloat(f[0], 64) // unreadable load stays 0
		}
	}
	if m.Load1 > float64(m.NProc)/2 {
		logf("warning: 1-minute load average %.2f is above nproc/2 = %.1f; numbers will be noisy", m.Load1, float64(m.NProc)/2)
	}
	return m
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
