package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// samples gathers, per workload and end-to-end metric, one value per untraced
// run in the file, and the workload's failed and attempted totals.
type samples struct {
	seconds   float64 // of every run in the file
	scale     float64
	values    map[string]map[string][]float64
	failed    map[string]int
	attempted map[string]int
}

// loadSamples pools the runs of one file, and refuses to when they were not
// the same measurement: another seed, run length or size.
func loadSamples(path string) (samples, error) {
	s := samples{values: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return s, fmt.Errorf("%s: no runs", path)
	}
	first := f.Runs[0].Header
	s.seconds, s.scale = first.Seconds, first.Scale
	for i, run := range f.Runs {
		if h := run.Header; h.Seed != first.Seed || h.Seconds != first.Seconds || h.Scale != first.Scale {
			return s, fmt.Errorf("%s: run %d has seed %d, seconds %g, scale %g; run 0 has %d, %g, %g: not one set",
				path, i, h.Seed, h.Seconds, h.Scale, first.Seed, first.Seconds, first.Scale)
		}
		for _, r := range run.Results {
			if r.Trace {
				continue
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
			}
			s.failed[r.Workload] += r.Failed
			s.attempted[r.Workload] += r.Attempted
		}
	}
	return s, nil
}

// spread is a set's same-code spread as a share of its median: the distance
// between the quartiles with four runs or more, the full range with fewer.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = percentile(s, 0.25), percentile(s, 0.75)
	}
	return ratio(hi-lo, median(s))
}

// compareFiles prints one row per (workload, end-to-end metric) and returns
// the exit code: 1 when any metric is worse or B fails more than A.
//
// The two sets may differ in seed (the second-seed check) but not in run
// length or size.
func compareFiles(w io.Writer, spec benchSpec, pathA, pathB string) int {
	a, err := loadSamples(pathA)
	if err == nil {
		var b samples
		if b, err = loadSamples(pathB); err == nil {
			if a.seconds != b.seconds || a.scale != b.scale {
				err = fmt.Errorf("%s ran %g s at scale %g, %s %g s at scale %g: not comparable",
					pathA, a.seconds, a.scale, pathB, b.seconds, b.scale)
			} else {
				return compareSets(w, spec, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareSets(w io.Writer, spec benchSpec, a, b samples) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-17s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values[wl.Name][m.Name], b.values[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(xa), spread(xb))
			verdict := "same"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-17s %12.4f %12.4f %9.4f %7.4f %7.2f  %s\n", wl.Name, m.Name, ma, mb, ratio(mb, ma), sp, m.Bound, verdict)
		}
		fa, fb := ratio(float64(a.failed[wl.Name]), float64(a.attempted[wl.Name])), ratio(float64(b.failed[wl.Name]), float64(b.attempted[wl.Name]))
		verdict := "same"
		if fb > fa {
			verdict = "worse"
			code = 1
		}
		fmt.Fprintf(w, "%-13s %-17s %12.6f %12.6f %9s %7s %7s  %s\n", wl.Name, "failed_frac", fa, fb, "", "", "", verdict)
	}
	return code
}
