package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// The machine this benchmark runs on is not steady: on the 2-vCPU VM it was
// written on, the same binary ran up to 30 % slower or faster from one
// minute to the next (a busy sibling hyperthread, no steal time to show for
// it), which is more than any bound BENCHMARK.json may state. So every run
// measures the machine as well: a fixed piece of CPU work, the speed probe,
// runs before and after each round while no server is up, and the round's
// times are multiplied by referenceProbe ÷ (what the probe took). Times are
// thereby reported at reference machine speed. In trials of in-process
// renders beside the probe, half-minute medians of the probe's time
// correlated 0.93-0.98 with those of render times; on a bad quarter of an
// hour, with conditions changing from second to second, dividing by it still
// halved the run-to-run spread (17 % to 8 %). What the probe cannot follow
// is time spent waiting on the disk (slider_revisit_spill's set-up).
//
// bench.machine_speed reports the factor, so a raw time is the reported
// one divided by it. Counts, bytes and memory are never scaled.

// referenceProbe is what the probe takes on that VM in a quiet minute.
const referenceProbe = 12 * time.Millisecond

// machineSpeed is the factor a round's times are multiplied by.
func machineSpeed(probe time.Duration) float64 {
	return float64(referenceProbe) / float64(probe)
}

var probeSink float64

const probeStints = 21

// speedProbe times the fixed work on each of the cores a server may use:
// 21 stints of 1 500 passes (a quarter of a second in all), each pass
// allocating 512 floats, filling them from a SplitMix64 stream and folding
// them into running moments, with the last 64 slices kept alive. The work
// allocates on purpose: a busy neighbour slows a Go server through its
// caches and its collector more than through its arithmetic, and a probe
// that only computes (tried first) followed barely half of a slowdown. It
// returns the median stint, averaged over the cores: a sustained slowdown
// shows in every stint, a passing disturbance in a few, and those the
// median ignores. (Seven stints left the probe with a run-to-run spread of
// 8 %, which it then added to every metric.) The work is the benchmark's
// own code — nothing a later change to the program can make faster.
func speedProbe() time.Duration {
	cores := min(nproc(), 2)
	medians := make([]float64, cores)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for core := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ring [64][]float64
			x, acc := uint64(0x9e3779b97f4a7c15), 0.0
			var stints []float64
			for range probeStints {
				start := time.Now()
				for pass := range 1500 {
					v := make([]float64, 512)
					for i := range v {
						x += 0x9e3779b97f4a7c15
						z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
						z = (z ^ z>>27) * 0x94d049bb133111eb
						v[i] = float64((z^z>>31)>>11) / (1 << 53)
					}
					mean, m2 := 0.0, 0.0
					for i, f := range v {
						d := f - mean
						mean += d / float64(i+1)
						m2 += d * (f - mean)
					}
					acc += math.Sqrt(m2)
					ring[pass%64] = v
				}
				stints = append(stints, float64(time.Since(start)))
			}
			mu.Lock()
			medians[core] = median(stints)
			probeSink += acc + ring[0][0]
			mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Duration(mean(medians))
}

// Scaling by the probe corrects medians well, but not tails: on a bad
// minute (the probe 30-80 % slower than usual) a workload's p90 rises well
// beyond what the probe's median shows. So the harness also waits bad
// minutes out. machine remembers, in a file under .bench_build/, what the
// probe usually takes in this checkout; a round starts only once the probe
// is within calmSlack of that, and a round that ends in a bad minute is
// run again. Both are paid from two budgets, so a run can lose at most
// runWaitBudget and all the runs of a checkout at most checkoutWaitBudget;
// with a budget spent, rounds are measured as they come, scaled as above.
type machine struct {
	path    string
	patient bool // false: never wait, never measure again
	// Probes are the latest probe times in this checkout, nanoseconds.
	Probes []float64 `json:"probes_ns"`
	// Waited is how long runs in this checkout have waited or re-run, seconds.
	Waited  float64 `json:"waited_s"`
	thisRun float64
}

const (
	calmSlack          = 1.18 // a probe this much above the usual one marks a bad minute
	probeHistory       = 64
	runWaitBudget      = 40.0  // seconds
	checkoutWaitBudget = 400.0 // seconds
)

// loadMachine reads the checkout's probe history; a missing or unreadable
// file is an empty history.
func loadMachine(path string, patient bool) *machine {
	m := &machine{path: path, patient: patient}
	if data, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(data, m) != nil {
			m.Probes, m.Waited = nil, 0
		}
	}
	return m
}

func (m *machine) save() error { return writeJSON(m.path, m) }

// usual is what the probe takes when the machine is in its better state:
// the first quartile of the remembered probes, but never more than
// referenceProbe, so that a checkout whose first runs fall into a bad
// minute does not learn the bad minute as usual. (On a machine that is
// simply slower than the reference VM this makes the first runs wait in
// vain, until the checkout's budget is spent; that is the price.)
func (m *machine) usual() float64 {
	if len(m.Probes) < 8 {
		return float64(referenceProbe)
	}
	s := append([]float64(nil), m.Probes...)
	sort.Float64s(s)
	return min(s[len(s)/4], float64(referenceProbe))
}

// probe runs the speed probe and remembers it.
func (m *machine) probe() time.Duration {
	p := speedProbe()
	m.Probes = append(m.Probes, float64(p))
	if len(m.Probes) > probeHistory {
		m.Probes = m.Probes[len(m.Probes)-probeHistory:]
	}
	return p
}

func (m *machine) calm(p time.Duration) bool { return float64(p) <= calmSlack*m.usual() }

// spend takes seconds from both budgets, if they are there.
func (m *machine) spend(seconds float64) bool {
	if !m.patient || m.thisRun+seconds > runWaitBudget || m.Waited+seconds > checkoutWaitBudget {
		return false
	}
	m.thisRun += seconds
	m.Waited += seconds
	return true
}

// calmProbe probes until the machine is calm or the budgets are spent, two
// seconds apart, and returns the last probe.
func (m *machine) calmProbe(ctx context.Context) time.Duration {
	p := m.probe()
	for !m.calm(p) && ctx.Err() == nil && m.spend(2.25) {
		logf("machine speed %.2f against a usual %.2f: waiting", machineSpeed(p), machineSpeed(time.Duration(m.usual())))
		time.Sleep(2 * time.Second)
		p = m.probe()
	}
	return p
}
