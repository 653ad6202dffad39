package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hepvine/internal/obs"
)

// env is what a run hands every workload: the seed its inputs derive from,
// the size scale (1 in a measured run, small in the schema test), the
// directory all its files live under, and the span tracer.
type env struct {
	seed    int64
	scale   float64
	workdir string
	tr      *tracer
	nextDir int
}

// scaled shrinks a full-size count for smoke runs, never below lo.
func (e *env) scaled(full, lo int) int {
	n := int(float64(full) * e.scale)
	if n < lo {
		return lo
	}
	return n
}

// freshDir makes a new empty directory under the workdir.
func (e *env) freshDir(prefix string) (string, error) {
	e.nextDir++
	d := filepath.Join(e.workdir, fmt.Sprintf("%s-%03d", prefix, e.nextDir))
	return d, os.MkdirAll(d, 0o755)
}

// round is what one replicate of a workload measured. Every round starts its
// own cluster, runs the same seeded inputs, checks the outputs and tears the
// cluster down, so rounds are independent samples.
type round struct {
	around    time.Duration // the round outside its timed region; measure fills it
	wall      time.Duration // the timed region
	cpu       time.Duration // process user+sys CPU inside the timed region
	work      float64       // units of work done (events, tasks, MB, requests)
	workWall  time.Duration // the part of wall the work was done in; 0 means all of it
	tasks     int           // tasks or requests completed
	latencyMs []float64     // one sample per task or request
	heapMB    float64       // HeapAlloc after GC, cluster still alive
	attempted int
	failed    int
	fails     map[string]int // failed, by the check that failed

	// Traced rounds only.
	mallocs    uint64
	allocBytes uint64
	layer      map[string]float64
}

// fail counts n failures of the named check.
func (r *round) fail(check string, n int) {
	if n <= 0 {
		return
	}
	if r.fails == nil {
		r.fails = map[string]int{}
	}
	r.fails[check] += n
	r.failed += n
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare makes the seeded inputs every round shares; it is timed into
	// setup_s.
	prepare(e *env) error
	// run performs one round; a traced round records the manager's event
	// stream and fills round.layer.
	run(e *env, traced bool) (round, error)
	// layers runs the layer-isolation drivers on inputs taken from the
	// workload, single-threaded, after the rounds of a traced pass.
	layers(e *env, out layerValues) error
	// shape describes the load for the run header.
	shape() map[string]any
}

// workloads binds the workload names of BENCHMARK.json to their code. The
// names, their order, why each exists and every metric's name and unit are
// written once, in BENCHMARK.json.
var workloads = map[string]func() workload{
	"dv3":          func() workload { return &dv3{} },
	"tiny-closed":  func() workload { return &tiny{} },
	"tiny-fed":     func() workload { return &tiny{fed: true} },
	"shuffle":      func() workload { return &shuffle{} },
	"gate-open":    func() workload { return &gateOpen{} },
	"journal-warm": func() workload { return &journalWarm{} },
}

// meter brackets a timed region. Harness work that has to happen inside the
// region (a heap measurement between two phases, reading back per-request
// stamps) goes between pause and resume and is in neither wall nor cpu.
type meter struct {
	traced      bool
	start       time.Time
	cpu0        time.Duration
	ms0         runtime.MemStats
	pausedAt    time.Time
	pausedCPU   time.Duration    // cpuTime at pause
	pausedMS    runtime.MemStats // traced only
	skipWall    time.Duration
	skipCPU     time.Duration
	skipMallocs uint64
	skipBytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter(traced bool) *meter {
	m := &meter{traced: traced}
	if traced {
		runtime.ReadMemStats(&m.ms0)
	}
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) pause() {
	m.pausedAt, m.pausedCPU = time.Now(), cpuTime()
	if m.traced {
		runtime.ReadMemStats(&m.pausedMS)
	}
}

func (m *meter) resume() {
	if m.traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.skipMallocs += ms.Mallocs - m.pausedMS.Mallocs
		m.skipBytes += ms.TotalAlloc - m.pausedMS.TotalAlloc
	}
	m.skipCPU += cpuTime() - m.pausedCPU
	m.skipWall += time.Since(m.pausedAt)
}

// elapsed is the wall time measured so far.
func (m *meter) elapsed() time.Duration { return time.Since(m.start) - m.skipWall }

// stop fills the round's wall, cpu and (traced) allocation counts.
func (m *meter) stop(r *round) {
	r.wall = m.elapsed()
	r.cpu = cpuTime() - m.cpu0 - m.skipCPU
	if m.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - m.ms0.Mallocs - m.skipMallocs
		r.allocBytes = ms1.TotalAlloc - m.ms0.TotalAlloc - m.skipBytes
	}
}

// newRecorder returns the manager event recorder of a traced round and the
// wall-clock instant its event offsets count from; nil in an untraced round.
func newRecorder(traced bool) (*obs.Recorder, time.Time) {
	if !traced {
		return nil, time.Time{}
	}
	return obs.NewRecorder(), time.Now()
}

// retainedHeapMB is HeapAlloc after a forced collection; the caller keeps
// the cluster alive across the call so what the manager retains is counted.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// result is one workload's outcome in one pass.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Fails     map[string]int   `json:"failed_checks,omitempty"`
	Rounds    int              `json:"rounds"`
	Shape     map[string]any   `json:"shape"`
	Metrics   map[string]value `json:"metrics"`
}

// minRounds is the fewest rounds a measured run reports a median of.
const minRounds = 5

// measure runs one workload: prepare, one warm-up round whose measurements
// are discarded, then rounds until seconds have passed, and at least want of
// them. In a traced pass rounds alternate untraced and traced (one round
// more, so both kinds get their share), and the tracing overhead is the ratio
// of two medians taken in the same process, seconds apart.
//
// Set-up is prepare plus the median, over the rounds, of what a round spends
// around its timed region: cluster start, library install, output checks,
// heap measurement, teardown, scratch removal. Work moved out of the timed
// region lands in one of the two. The warm-up round is not in it: a process's
// first round of a heavy workload is cold in ways that differ by a factor of
// two between otherwise identical processes.
func measure(name string, w workload, e *env, seconds float64, want int, trace bool, defs []specMetric) (result, error) {
	res := result{Workload: name, Trace: trace, Metrics: map[string]value{}}
	t0 := time.Now()
	if err := w.prepare(e); err != nil {
		return res, fmt.Errorf("%s: prepare: %w", name, err)
	}
	prep := time.Since(t0)
	if _, err := w.run(e, false); err != nil {
		return res, fmt.Errorf("%s: warm-up round: %w", name, err)
	}

	var plain, traced []round
	if trace {
		want++
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < want || time.Now().Before(deadline); i++ {
		on := trace && i%2 == 1
		e.tr.take() // a traced round folds only its own spans
		e.tr.on.Store(on)
		start := time.Now()
		r, err := w.run(e, on)
		e.tr.on.Store(false)
		if err != nil {
			return res, fmt.Errorf("%s: round %d: %w", name, i, err)
		}
		r.around = time.Since(start) - r.wall
		if on {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	res.Rounds = len(plain) + len(traced)
	res.Shape = w.shape()
	for _, r := range append(append([]round(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for k, n := range r.fails {
			if res.Fails == nil {
				res.Fails = map[string]int{}
			}
			res.Fails[k] += n
		}
	}
	res.Correct = res.Failed == 0

	if !trace {
		col := func(f func(r round) float64) []float64 {
			out := make([]float64, len(plain))
			for i, r := range plain {
				out[i] = f(r)
			}
			return out
		}
		put := func(name string, xs []float64, add float64) {
			res.Metrics[name] = value{Value: median(xs) + add, Samples: len(xs)}
		}
		put("setup_s", col(func(r round) float64 { return r.around.Seconds() }), prep.Seconds())
		put("makespan_s", col(func(r round) float64 { return r.wall.Seconds() }), 0)
		put("work_per_s", col(func(r round) float64 {
			if r.workWall > 0 {
				return ratio(r.work, r.workWall.Seconds())
			}
			return ratio(r.work, r.wall.Seconds())
		}), 0)
		put("cpu_us_per_task", col(func(r round) float64 { return ratio(float64(r.cpu.Microseconds()), float64(r.tasks)) }), 0)
		put("latency_p50_ms", col(func(r round) float64 { return percentile(r.latencyMs, 0.50) }), 0)
		put("retained_heap_mb", col(func(r round) float64 { return r.heapMB }), 0)
		return res, finish(&res, defs)
	}

	lv := layerValues{}
	for _, r := range traced {
		for k, v := range r.layer {
			lv.add(k, v)
		}
		n := float64(r.tasks)
		lv.add("vine.allocs_per_task", ratio(float64(r.mallocs), n))
		lv.add("vine.alloc_kb_per_task", ratio(float64(r.allocBytes)/1e3, n))
		lv.add("vine.client_latency_p95_ms", percentile(r.latencyMs, 0.95))
		lv.add("vine.client_latency_p99_ms", percentile(r.latencyMs, 0.99))
	}
	wallOf := func(rs []round) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.wall.Seconds()
		}
		return median(xs)
	}
	lv.add("obs.trace_overhead_frac", ratio(wallOf(traced), wallOf(plain))-1)
	if err := w.layers(e, lv); err != nil {
		return res, fmt.Errorf("%s: layer drivers: %w", name, err)
	}
	for k, xs := range lv {
		res.Metrics[k] = value{Value: median(xs), Samples: len(xs)}
	}
	return res, finish(&res, defs)
}

// finish gives every metric BENCHMARK.json names for this pass its unit, fills
// the ones the workload never touches with 0, and refuses a name it does not
// have.
func finish(res *result, defs []specMetric) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v := res.Metrics[d.Name]
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	for k := range res.Metrics {
		if !known[k] {
			return fmt.Errorf("%s: emitted metric %q is not in BENCHMARK.json", res.Workload, k)
		}
	}
	return nil
}
