package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec keeps BENCHMARK.json inside the driver's limits and checks that
// it and the program name the same workloads.
func TestSpec(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why is not one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if endToEnd := i < len(spec.EndToEnd); endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		} else if !endToEnd && m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.Name == "setup_s" {
			setup = i < len(spec.EndToEnd) && m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each pass emits exactly the metrics BENCHMARK.json names for
// it, every output check passes, and comparing a result file with itself
// finds nothing moved.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "r.json")
	for _, trace := range []bool{false, true} {
		rec, err := runAll(spec, "", 7, 0, 0.02, 2, trace, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Results) != len(workloads) {
			t.Fatalf("%d results for %d workloads", len(rec.Results), len(workloads))
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, r := range rec.Results {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", r.Workload, trace, r.Attempted, r.Failed, r.Fails)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", r.Workload, trace, len(r.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", r.Workload, trace, d.Name, v.Unit, d.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", r.Workload, d.Name, v.Value)
				}
			}
		}
		// Twice, so the file holds a set of two runs.
		for i := 0; i < 2; i++ {
			if err := appendRun(out, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	var table bytes.Buffer
	if code := compareFiles(&table, spec, out, out); code != 0 {
		t.Errorf("-compare of a file with itself exits %d:\n%s", code, table.String())
	}
	rows := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if want := len(workloads) * (len(spec.EndToEnd) + 1); len(rows) != want {
		t.Errorf("-compare printed %d rows, want %d:\n%s", len(rows), want, table.String())
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, " same") {
			t.Errorf("-compare of a file with itself: %s", row)
		}
	}
}
