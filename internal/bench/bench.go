// Package bench is the experiment harness: one runner per table and figure
// in the paper's evaluation (§IV–V). Each runner regenerates the artifact's
// rows or series — at paper scale via cmd/vinebench, or at a configurable
// fraction via `go test -bench` (bench_test.go at the repository root) so
// the suite stays fast.
//
// The goal is shape fidelity, not absolute numbers (the substrate is a
// simulator, not the authors' testbed): who wins, by roughly what factor,
// and where crossovers fall. EXPERIMENTS.md records paper-vs-measured for
// every artifact.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Options control an experiment run.
type Options struct {
	// Scale multiplies workload size and worker count (1.0 = paper scale).
	Scale float64
	// Seed makes every run reproducible.
	Seed uint64
	// Verbose adds per-series detail (timelines, heatmap rows).
	Verbose bool
	// CSVDir, when set, makes experiments also write their raw series
	// (timelines, distributions, matrices, scaling curves) as CSV files
	// under this directory, for external plotting.
	CSVDir string
}

func (o *Options) defaults() {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// scaled applies the scale factor to a paper-scale count, with a floor.
func (o Options) scaled(n, min int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

// Experiment is one regenerable artifact.
type Experiment struct {
	ID    string // "table1", "fig7", ...
	Title string
	Paper string // what the paper reports, for side-by-side reading
	Run   func(opts Options, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder is the canonical presentation order (tables first, then
// figures as they appear in the paper).
var paperOrder = []string{
	"table1", "table2", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14a", "fig14b", "fig15",
	"ablation-cap", "ablation-fanin", "sched", "verify",
}

// All lists experiments in paper order.
func All() []Experiment {
	rank := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return rank[out[i].ID] < rank[out[j].ID] })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment in order.
func RunAll(opts Options, w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(e, opts, w); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes one experiment with a standard header.
func RunOne(e Experiment, opts Options, w io.Writer) error {
	opts.defaults()
	fmt.Fprintf(w, "\n== %s — %s (scale %.3g, seed %d) ==\n", e.ID, e.Title, opts.Scale, opts.Seed)
	if e.Paper != "" {
		fmt.Fprintf(w, "   paper: %s\n", e.Paper)
	}
	start := time.Now()
	if err := e.Run(opts, w); err != nil {
		return fmt.Errorf("bench %s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "   [%s regenerated in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// ---- small rendering helpers ----

// row prints aligned columns.
func row(w io.Writer, cols ...string) {
	for i, c := range cols {
		if i == 0 {
			fmt.Fprintf(w, "   %-26s", c)
		} else {
			fmt.Fprintf(w, " %18s", c)
		}
	}
	fmt.Fprintln(w)
}

// bar renders a proportional ASCII bar.
func bar(v, max float64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// secs formats a duration as seconds with no decimals.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.0fs", d.Seconds())
}

// csvFile opens <CSVDir>/<name>.csv for an experiment's raw series, or
// returns nil when CSV export is off. Callers must Close it.
func (o Options) csvFile(name string) (*os.File, error) {
	if o.CSVDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(o.CSVDir, name+".csv"))
}
