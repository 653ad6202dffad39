package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"hepvine/internal/obs"
	"hepvine/internal/vine"
)

// cluster is a flat live-plane deployment: one manager and in-process workers
// over loopback TCP, every cache under dir. WithControlOverhead is never set.
type cluster struct {
	mgr     *vine.Manager
	workers []*vine.Worker
}

// startCluster starts a manager with mgrOpts and nWorkers workers of the
// given core count. Worker i caches under dir/w<i>; wrkOpts extend each.
func startCluster(dir string, nWorkers, cores int, rec *obs.Recorder, mgrOpts []vine.Option, wrkOpts ...vine.Option) (*cluster, error) {
	if rec != nil {
		mgrOpts = append(mgrOpts, vine.WithRecorder(rec))
	}
	mgr, err := vine.NewManager(mgrOpts...)
	if err != nil {
		return nil, err
	}
	c := &cluster{mgr: mgr}
	for i := 0; i < nWorkers; i++ {
		opts := append([]vine.Option{
			vine.WithName(fmt.Sprintf("w%d", i)),
			vine.WithCores(cores),
			vine.WithCacheDir(filepath.Join(dir, fmt.Sprintf("w%d", i))),
		}, wrkOpts...)
		w, err := vine.NewWorker(mgr.Addr(), opts...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	if err := mgr.WaitForWorkers(nWorkers, 10*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop is manager first: a worker vanishing under a live manager is a
// preemption it reacts to, which is not what a round's teardown should add.
func (c *cluster) stop() {
	c.mgr.Stop()
	for _, w := range c.workers {
		w.Stop()
	}
}

const tickLib = "benchtick"

// bodyNanos sums the time spent inside the benchmark's own task functions
// while a traced round runs: process CPU minus this is the control path's.
var (
	tracingBodies atomic.Bool
	bodyNanos     atomic.Int64
)

// timedBody wraps a task function so traced rounds know how long the
// function bodies ran; an untraced round pays one atomic load.
func timedBody(f vine.Function) vine.Function {
	return func(c *vine.Call) error {
		if !tracingBodies.Load() {
			return f(c)
		}
		t0 := time.Now()
		err := f(c)
		bodyNanos.Add(int64(time.Since(t0)))
		return err
	}
}

func registerTickLib() {
	vine.MustRegisterLibrary(&vine.Library{
		Name: tickLib,
		Funcs: map[string]vine.Function{
			// tick is the no-op: its output is "t" + its args.
			"tick": timedBody(func(c *vine.Call) error {
				c.SetOutput("out", append([]byte("t"), c.Args...))
				return nil
			}),
			// spin is the gate's 2 ms request body. It sleeps, so it is
			// not CPU and stays out of bodyNanos.
			"spin": func(c *vine.Call) error {
				time.Sleep(2 * time.Millisecond)
				return nil
			},
		},
	})
}

// echoEvery is how often a tick task declares its output. Every declared
// output is a file the worker creates and the run later deletes, and ext4
// will not reuse a freed inode for a minute or more: allocation scans past
// them, so a run that churns 10^5 inodes makes the next minutes' creates
// several times dearer and the numbers bimodal (README.md, "Load shape").
// One echo in 64 keeps the output check and leaves the control path alone.
const echoEvery = 64

// tickTasks builds n tick calls with args prefix-i; every echoEvery-th
// declares the output.
func tickTasks(prefix string, n int) []vine.Task {
	tasks := make([]vine.Task, n)
	for i := range tasks {
		tasks[i] = vine.Task{
			Mode: vine.ModeFunctionCall, Library: tickLib, Func: "tick",
			Args: []byte(fmt.Sprintf("%s-%d", prefix, i)), Cores: 1,
		}
		if i%echoEvery == 0 {
			tasks[i].Outputs = []string{"out"}
		}
	}
	return tasks
}

// taskRun is one client's view of the tasks it submitted to a manager:
// handles in submit order, and for each task when it was submitted and when
// the client saw it done.
type taskRun struct {
	handles   []*vine.TaskHandle
	submitAt  map[int]time.Time
	doneAt    map[int]time.Time
	latencyMs []float64 // Submit to the client observing Done
	failed    int
}

func newTaskRun(n int) *taskRun {
	return &taskRun{
		handles:   make([]*vine.TaskHandle, 0, n),
		submitAt:  make(map[int]time.Time, n),
		doneAt:    make(map[int]time.Time, n),
		latencyMs: make([]float64, 0, n),
	}
}

func (tr *taskRun) submit(e *env, mgr *vine.Manager, t vine.Task, parent int64) error {
	sp := e.tr.begin("vine.Submit", parent, "")
	now := time.Now()
	h, err := mgr.Submit(t)
	sp.end()
	if err != nil {
		return fmt.Errorf("submit %d: %w", len(tr.handles), err)
	}
	tr.submitAt[h.ID] = now
	tr.handles = append(tr.handles, h)
	return nil
}

// waitOne takes one completion with WaitAny, as a TaskVine client does.
func (tr *taskRun) waitOne(e *env, mgr *vine.Manager, parent int64) error {
	sp := e.tr.begin("vine.WaitAny", parent, "")
	h, err := mgr.WaitAny(2 * time.Minute)
	sp.end()
	if err != nil {
		return err
	}
	now := time.Now()
	tr.doneAt[h.ID] = now
	tr.latencyMs = append(tr.latencyMs, ms(int64(now.Sub(tr.submitAt[h.ID]))))
	if h.Err() != nil {
		tr.failed++
	}
	return nil
}

// runWindow submits the tasks from one generator goroutine keeping at most
// window in flight (window <= 0: all at once) and waits for all of them.
func runWindow(e *env, mgr *vine.Manager, tasks []vine.Task, window int, parent int64) (*taskRun, error) {
	n := len(tasks)
	if window <= 0 || window > n {
		window = n
	}
	tr := newTaskRun(n)
	for done := 0; done < n; done++ {
		for len(tr.handles) < n && len(tr.handles)-done < window {
			if err := tr.submit(e, mgr, tasks[len(tr.handles)], parent); err != nil {
				return nil, err
			}
		}
		if err := tr.waitOne(e, mgr, parent); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// checkTicks fetches every declared tick output and compares it with "t" +
// args; it returns how many were checked and how many differed. Every task's
// terminal state was already checked when it was waited for.
func checkTicks(mgr *vine.Manager, handles []*vine.TaskHandle, tasks []vine.Task) (checked, bad int) {
	for i := 0; i < len(handles); i += echoEvery {
		checked++
		cn, ok := handles[i].Output("out")
		if !ok {
			bad++
			continue
		}
		got, err := mgr.FetchBytes(cn)
		if err != nil || string(got) != "t"+string(tasks[i].Args) {
			bad++
		}
	}
	return checked, bad
}
