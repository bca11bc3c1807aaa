package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// num is a measured value that may be missing; missing is null in JSON.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if f := float64(n); math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, float64(n), 'g', -1, 64), nil
}

func (n *num) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*n = num(missing)
		return nil
	}
	f, err := strconv.ParseFloat(string(data), 64)
	*n = num(f)
	return err
}

// measured is one metric over the runs of a result file.
type measured struct {
	Unit   string `json:"unit"`
	Median num    `json:"median"`
	Runs   []num  `json:"runs"`
}

func (m *measured) add(v float64) {
	m.Runs = append(m.Runs, num(v))
	m.Median = num(median(m.values()))
}

// values are the runs that were measured.
func (m *measured) values() []float64 {
	var out []float64
	for _, r := range m.Runs {
		if !math.IsNaN(float64(r)) {
			out = append(out, float64(r))
		}
	}
	return out
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Points    int                  `json:"points_per_op"`
	Worlds    int                  `json:"worlds_per_point"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Failures  []string             `json:"failures,omitempty"`
	Speed     measured             `json:"machine_speed"` // the factor every time was multiplied by
	EndToEnd  map[string]*measured `json:"end_to_end"`
	PerLayer  map[string]*measured `json:"per_layer"`
}

// resultFile is bench/out/result.json, and what -check compares.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Probes    map[string]*measured       `json:"probes"`
}

func record(into map[string]*measured, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		if into[d.Name] == nil {
			into[d.Name] = &measured{Unit: d.Unit}
		}
		into[d.Name].add(v)
	}
}

// absorb adds one run's result to the file.
func (f *resultFile) absorb(spec *workloadSpec, sz sizes, res *runResult) {
	w := f.Workloads[spec.name]
	if w == nil {
		w = &workloadResult{Correct: true, EndToEnd: map[string]*measured{}, PerLayer: map[string]*measured{}}
		w.Points, w.Worlds = spec.size(sz)
		f.Workloads[spec.name] = w
	}
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Correct = w.Correct && res.Correct
	w.Failures = append(w.Failures, res.Failures...)
	w.Speed.add(res.Metrics["bench.machine_speed"])
	if res.Traced {
		record(w.PerLayer, tracedLayer, res.Metrics)
	} else {
		record(w.EndToEnd, endToEnd, res.Metrics)
		record(w.EndToEnd, endToEndExtra, res.Metrics)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func printRows(w io.Writer, defs []metricDef, ms map[string]*measured, bounds bool) {
	for _, d := range defs {
		m := ms[d.Name]
		if m == nil {
			continue
		}
		fmt.Fprintf(w, "  %-42s %12s %-5s", d.Name, formatValue(float64(m.Median)), d.Unit)
		switch {
		case !bounds:
		case d.Name == "failed_share":
			fmt.Fprint(w, "  bound 0 absolute")
		default:
			fmt.Fprintf(w, "  bound %g%%", 100*d.Bound)
		}
		fmt.Fprintln(w)
	}
}

// print writes every metric by name with its unit, and the end-to-end
// bounds, for people.
func (f *resultFile) print(w io.Writer) {
	for _, spec := range workloads {
		r := f.Workloads[spec.name]
		if r == nil {
			continue
		}
		verdict := "answers correct"
		if !r.Correct {
			verdict = "ANSWERS WRONG"
		}
		fmt.Fprintf(w, "\n== %s: %d points x %d worlds per op; %d ops attempted (untraced + traced, %d run(s)), %d failed, %s; machine speed %.2f\n",
			spec.name, r.Points, r.Worlds, r.Attempted, f.Meta.Runs, r.Failed, verdict, float64(r.Speed.Median))
		for _, msg := range r.Failures {
			fmt.Fprintf(w, "  failure: %s\n", msg)
		}
		printRows(w, endToEnd, r.EndToEnd, true)
		printRows(w, endToEndExtra, r.EndToEnd, true)
		if len(r.PerLayer) > 0 {
			fmt.Fprintln(w, "  -- per layer (traced run)")
			printRows(w, tracedLayer, r.PerLayer, false)
		}
	}
	if len(f.Probes) > 0 {
		fmt.Fprintln(w, "\n== layer probes (direct calls, no server)")
		printRows(w, probeLayer, f.Probes, false)
	}
}
