// Command benchmark is the repository's standing performance benchmark: six
// workloads on the live TCP plane (a real vine.Manager and in-process workers
// over loopback), end-to-end metrics from an untraced pass, per-layer metrics
// from a traced pass, output checks in every round. BENCHMARK.json at the
// repository root describes it to the driver; README.md says what each number
// means and which layer should move it.
//
//	go run ./benchmark -seed 42 -out r.json              # all workloads, untraced
//	go run ./benchmark -seed 42 -trace 1 -out r.json     # per-layer pass
//	go run ./benchmark -workload dv3 -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// header is recorded with every run so two result files can be told apart.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// runRecord is one invocation: a header and one result per workload run.
type runRecord struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

// resultFile is what -out appends to: a set of runs of (presumably) one
// commit, which is what -compare compares.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wlName := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 42, "seed for datasets, task args, payload bytes and arrival times")
	seconds := fs.Float64("seconds", 15, "how long each workload keeps starting rounds")
	trace := fs.Int("trace", 0, "1: traced pass (per-layer metrics); 0: untraced pass (end-to-end metrics)")
	out := fs.String("out", "", "append this run to a result file")
	workdir := fs.String("workdir", ".bench_work", "parent of the run's scratch directory, removed on exit")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The one place workloads, metric names, units and bounds are written.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}

	rec, err := runAll(spec, *wlName, *seed, *seconds, 1, minRounds, *trace != 0, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResults(rec)
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for _, r := range rec.Results {
		if !r.Correct {
			code = 1
		}
	}
	if len(rec.Results) == 1 {
		// The driver reads the last line of standard output.
		fmt.Println(driverLine(rec.Results[0]))
	}
	return code
}

// runAll runs the named workload, or every workload of the spec in its order,
// under one scratch directory that is removed however the run ends. Each
// workload runs at least rounds rounds, however short seconds is. scale is 1
// in a measured run; only the schema test shrinks the workloads.
func runAll(spec benchSpec, only string, seed int64, seconds, scale float64, rounds int, trace bool, workdir string) (runRecord, error) {
	rec := runRecord{Header: header{
		Seed: seed, Seconds: seconds, Scale: scale, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
	}}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return rec, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return rec, err
	}
	tr := newTracer()
	found := false
	defs := spec.EndToEnd
	if trace {
		defs = spec.PerLayer
	}
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		found = true
		newWorkload, ok := workloads[w.Name]
		if !ok {
			return rec, fmt.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		e := &env{seed: seed, scale: scale, workdir: dir, tr: tr}
		res, err := measure(w.Name, newWorkload(), e, seconds, rounds, trace, defs)
		if err != nil {
			return rec, err
		}
		rec.Results = append(rec.Results, res)
	}
	if !found {
		return rec, fmt.Errorf("unknown workload %q", only)
	}
	if trace {
		// Spans outlive the scratch directory: they are the trace.
		if err := writeSpans(filepath.Join(workdir, "spans.jsonl"), tr.all()); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResults prints every metric by name with its unit.
func printResults(rec runRecord) {
	h := rec.Header
	fmt.Printf("# seed=%d seconds=%g scale=%g trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		h.Seed, h.Seconds, h.Scale, h.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	for _, r := range rec.Results {
		shape, _ := json.Marshal(r.Shape)
		fmt.Printf("# %s rounds=%d shape=%s attempted=%d failed=%d failed_frac=%g correct=%v\n",
			r.Workload, r.Rounds, shape, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct)
		for check, n := range r.Fails {
			fmt.Printf("# %s FAILED %d x %s\n", r.Workload, n, check)
		}
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := r.Metrics[n]
			fmt.Printf("%-14s %-40s %14.4f %-6s (median of %d)\n", r.Workload, n, v.Value, v.Unit, v.Samples)
		}
	}
}

// driverLine is the one JSON object the driver's contract asks for.
func driverLine(r result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for n, v := range r.Metrics {
		line.Metrics[n] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

func appendRun(path string, rec runRecord) error {
	var f resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
