package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	if len(all) != len(paperOrder) {
		t.Fatalf("registered %d experiments, expected %d", len(all), len(paperOrder))
	}
	for i, e := range all {
		if e.ID != paperOrder[i] {
			t.Fatalf("position %d: %s, want %s", i, e.ID, paperOrder[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// The live plane is measured by the standing benchmark (benchmark/,
// workloads named in BENCHMARK.json); vinebench keeps only what that
// does not cover. No experiment id may name a benchmark workload, or the
// first word of one ("gate" for "gate-open").
func TestNoDuplicateLiveBench(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	taken := map[string]string{}
	for _, w := range spec.Workloads {
		taken[w.Name] = w.Name
		taken[strings.SplitN(w.Name, "-", 2)[0]] = w.Name
	}
	for _, id := range paperOrder {
		if w, ok := taken[id]; ok {
			t.Errorf("experiment %q duplicates benchmark workload %q", id, w)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("table1")
	if err != nil || e.ID != "table1" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.defaults()
	if o.Scale != 1 || o.Seed == 0 {
		t.Fatalf("defaults: %+v", o)
	}
	if got := o.scaled(100, 5); got != 100 {
		t.Fatalf("scaled full = %d", got)
	}
	o.Scale = 0.01
	if got := o.scaled(100, 5); got != 5 {
		t.Fatalf("scaled floor = %d", got)
	}
}

func TestScaledLadderMonotonic(t *testing.T) {
	l := scaledLadder([]int{5, 10, 15, 20, 25}, 0.01)
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
	}
	full := scaledLadder([]int{10, 20}, 1)
	if full[0] != 10 || full[1] != 20 {
		t.Fatalf("full-scale ladder altered: %v", full)
	}
}

// Every experiment must run clean at a tiny scale and produce its header
// content. The heavyweight shape assertions live in the vinesim tests; this
// guards the harness plumbing end to end.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment sweep skipped in -short")
	}
	opts := Options{Scale: 0.02, Seed: 11}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(e, opts, &buf); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s output missing header:\n%s", e.ID, out)
			}
			if len(out) < 100 {
				t.Fatalf("%s produced suspiciously little output:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(Options{Scale: 0.02, Seed: 5}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range paperOrder {
		if !strings.Contains(buf.String(), "== "+id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}

func TestBarRendering(t *testing.T) {
	if got := bar(5, 10, 10); got != "#####" {
		t.Fatalf("bar = %q", got)
	}
	if got := bar(20, 10, 10); got != "##########" {
		t.Fatalf("bar clamp = %q", got)
	}
	if got := bar(1, 0, 10); got != "" {
		t.Fatalf("bar zero max = %q", got)
	}
}
