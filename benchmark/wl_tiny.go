package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hepvine/internal/foreman"
	"hepvine/internal/sched"
	"hepvine/internal/vine"
)

// tinyWindow is the closed loop's in-flight cap. An unbounded burst into a
// flat manager is bimodal between identical runs (README.md, "Excluded");
// window 8 keeps both workers' four cores busy and repeats.
const tinyWindow = 8

// tiny is tiny-closed (flat manager, window 8) and, with fed set, tiny-fed
// (the same calls burst into a 2-foreman tree).
type tiny struct {
	fed   bool
	burst bool // flat manager, but submit everything at once (layer driver only)
	n     int
	tasks []vine.Task
	rates []float64 // tasks/s of every round so far
}

func (t *tiny) prepare(e *env) error {
	registerTickLib()
	t.n = e.scaled(12000, 200)
	t.tasks = tickTasks(fmt.Sprintf("s%d", e.seed), t.n)
	return nil
}

func (t *tiny) shape() map[string]any {
	if t.fed {
		return map[string]any{"n": t.n, "window": "burst", "foremen": 2, "workers_per_foreman": 1, "cores_per_worker": 2}
	}
	return map[string]any{"n": t.n, "window": tinyWindow, "workers": 2, "cores_per_worker": 2}
}

func (t *tiny) run(e *env, traced bool) (round, error) {
	var r round
	dir, err := e.freshDir("tiny")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	rec, recEpoch := newRecorder(traced)
	var mgr *vine.Manager
	var fed *foreman.LocalFederation
	window := tinyWindow
	if t.fed || t.burst {
		window = 0
	}
	if t.fed {
		var rootOpts []vine.Option
		if rec != nil {
			rootOpts = append(rootOpts, vine.WithRecorder(rec))
		}
		fed, err = foreman.NewLocalFederation(foreman.LocalConfig{
			Foremen: 2, WorkersPerForeman: 1, CoresPerWorker: 2,
			// internal/bench/foreman.go's cadence. At the default 200 ms
			// the root learns of completions in 200 ms steps and the
			// burst's makespan is a multiple of that: 0.4, 0.6 or 0.8 s
			// for the same work, whichever tick the last report catches.
			ReportEvery: 2 * time.Millisecond,
			// Deep enough that the shards absorb the whole burst and
			// the root's ready set stays empty.
			LeaseAhead:  1 + t.n/4,
			RootOptions: rootOpts,
			LocalOptions: func(int) []vine.Option {
				return []vine.Option{vine.WithPeerTransfers(true), vine.WithLibrary(tickLib, true)}
			},
			WorkerOptions: func(shard, n int) []vine.Option {
				return []vine.Option{vine.WithCacheDir(filepath.Join(dir, fmt.Sprintf("s%dw%d", shard, n)))}
			},
		})
		if err != nil {
			return r, err
		}
		defer fed.Stop()
		if err := fed.Root.WaitForWorkers(2, 10*time.Second); err != nil {
			return r, err
		}
		mgr = fed.Root
	} else {
		c, err := startCluster(dir, 2, 2, rec, []vine.Option{
			vine.WithPeerTransfers(true), vine.WithLibrary(tickLib, true),
		})
		if err != nil {
			return r, err
		}
		defer c.stop()
		mgr = c.mgr
	}

	root := e.tr.begin("round", 0, "tiny")
	e.tr.round.Store(root.id)
	bodyNanos.Store(0)
	tracingBodies.Store(rec != nil)
	m := startMeter(rec != nil)
	tr, err := runWindow(e, mgr, t.tasks, window, root.id)
	m.stop(&r)
	tracingBodies.Store(false)
	root.end()
	if err != nil {
		return r, err
	}
	r.work, r.tasks, r.latencyMs = float64(t.n), t.n, tr.latencyMs
	r.heapMB = retainedHeapMB()
	t.rates = append(t.rates, ratio(r.work, r.wall.Seconds()))

	checked, bad := checkTicks(mgr, tr.handles, t.tasks)
	r.attempted = t.n + checked
	r.fail("task error", tr.failed)
	r.fail("output differs", bad)
	var fs vine.FederationStats
	if t.fed {
		fs = fed.Root.FederationStats()
		// One more check: lease batching must be on, or this workload
		// measures the flat path twice.
		r.attempted++
		if fs.LeaseBatches >= t.n {
			r.fail("root frames per task >= 1", 1)
		}
	}

	if rec != nil {
		r.layer = map[string]float64{}
		foldStages(rec.Events(), recEpoch, tr.doneAt, r.layer)
		foldControl(&r, time.Duration(bodyNanos.Load()), mgr.Stats(), r.layer)
		r.layer["vine.ctrl_frame_us_measured"] = ratio(float64(r.wall.Microseconds()), float64(t.n))
		if t.fed {
			r.layer["foreman.lease_batches"] = float64(fs.LeaseBatches)
			r.layer["foreman.tasks_per_batch"] = ratio(float64(fs.LeaseGrants), float64(fs.LeaseBatches))
			r.layer["foreman.root_frames_per_task"] = ratio(float64(fs.LeaseBatches), float64(t.n))
			r.layer["foreman.cross_shard_bytes"] = float64(fs.CrossShardBytes)
		}
	}
	return r, nil
}

// layers times the scheduler alone on this workload's shape: Enqueue+Assign
// per task with 8 queued (tiny-closed) and with 10k queued (tiny-fed, whose
// burst leaves the queue deep).
func (t *tiny) layers(e *env, out layerValues) error {
	if t.fed {
		us, _ := schedPerTask(10000, e.scaled(20000, 2000))
		out.add("sched.assign_us_per_task_d10k", us)
		// The measured counterpart of PR 10's modelled 3.6x: the same
		// burst into a flat manager with the same four cores.
		fedRate := median(t.rates)
		flat := &tiny{n: t.n, tasks: t.tasks, burst: true}
		for i := 0; i < 3; i++ {
			if _, err := flat.run(e, false); err != nil {
				return err
			}
		}
		out.add("foreman.fed_over_flat_burst", ratio(fedRate, median(flat.rates)))
		return nil
	}
	us, allocs := schedPerTask(tinyWindow, e.scaled(200000, 2000))
	out.add("sched.assign_us_per_task_d8", us)
	out.add("sched.assign_allocs", allocs)
	return nil
}

// schedPerTask holds the ready set at depth while n tasks pass through a
// scheduler indexing 2 workers of 2 cores: each step enqueues a task, assigns
// one, and releases its core as a completion would.
func schedPerTask(depth, n int) (usPerTask, allocsPerTask float64) {
	s := sched.New(nil)
	s.WorkerJoin(0, 2, 0)
	s.WorkerJoin(1, 2, 0)
	// One free core: each Assign places exactly the head of the queue, so
	// the depth holds.
	s.Reserve(0, 2, 0)
	s.Reserve(1, 1, 0)
	tasks := make([]sched.Task, n+depth)
	for i := range tasks {
		tasks[i] = sched.Task{ID: fmt.Sprintf("%d", i), Cores: 1}
	}
	var placed []sched.Assignment
	place := func(a sched.Assignment) { placed = append(placed, a) }
	for i := 0; i < depth; i++ {
		s.Enqueue(&tasks[i], 0)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := depth; i < depth+n; i++ {
		s.Enqueue(&tasks[i], int64(i))
		placed = placed[:0]
		s.Assign(int64(i), place)
		for _, a := range placed {
			s.Release(a.Worker, a.Task.Cores, 0)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return ratio(float64(el.Nanoseconds())/1e3, float64(n)), ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n))
}
