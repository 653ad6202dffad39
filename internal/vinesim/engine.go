package vinesim

import (
	"fmt"
	"time"

	"hepvine/internal/cluster"
	"hepvine/internal/core"
	"hepvine/internal/dag"
	"hepvine/internal/netsim"
	"hepvine/internal/obs"
	"hepvine/internal/params"
	"hepvine/internal/randx"
	"hepvine/internal/sched"
	"hepvine/internal/sim"
	"hepvine/internal/storage"
	"hepvine/internal/units"
)

// state is one in-flight simulation.
type state struct {
	cfg Config
	wl  *core.Workload

	pool    *cluster.Pool
	fs      *storage.SharedFS
	eng     *sim.Engine
	net     *netsim.Network
	tracker *dag.Tracker
	reps    *sched.Replicas
	gov     *core.Governor
	rng     *randx.RNG
	policy  *sched.Policy

	// manager serial server
	mgrFree time.Duration

	// per-task state
	attempt    map[dag.Key]int           // bumped on every (re)dispatch; stale callbacks bail
	execing    map[dag.Key]bool          // user code on a core right now
	assigned   map[dag.Key]int           // node id while dispatched
	imported   map[int]bool              // node did its hoisted import
	dispatched map[dag.Key]bool          // dispatch pipeline entered, not yet retired
	retired    map[dag.Key]bool          // first retirement done (re-runs skip GC accounting)
	dispatchAt map[dag.Key]time.Duration // when the current attempt entered the pipeline
	execAt     map[dag.Key]time.Duration // when user code started
	readyAt    map[dag.Key]time.Duration // when the task (last) became ready, for queue wait

	// schedCands is the per-placement candidate scratch buffer, reused so
	// steady-state scheduling stays allocation-free like the live plane.
	schedCands []sched.Candidate

	// refs counts not-yet-done consumers per file; at zero the file is
	// garbage-collected from worker caches (TaskVine deletes cache entries
	// once no pending task needs them, which is what keeps long runs
	// within the 108GB worker disks).
	refs map[storage.FileID]int

	res  Result
	done bool
}

// record emits one trace event stamped with the current virtual time.
// A nil recorder costs one branch per call site.
func (st *state) record(ev obs.Event) {
	if st.cfg.Recorder == nil {
		return
	}
	ev.T = st.eng.Now()
	st.cfg.Recorder.Record(ev)
}

// Run executes the workload under the configuration and returns the result.
func Run(cfg Config, wl *core.Workload) *Result {
	cfg.defaults()
	if err := wl.Validate(); err != nil {
		return &Result{Config: cfg, Failure: err.Error()}
	}

	st := &state{cfg: cfg, wl: wl}
	st.res.Config = cfg
	pol, err := sched.ByName(cfg.Policy, cfg.Seed)
	if err != nil {
		st.res.Failure = err.Error()
		return &st.res
	}
	st.policy = pol

	// Dask.Distributed runs one single-core, share-nothing worker process
	// per core: model each as its own node with a slice of the NIC/disk.
	poolCfg := cluster.Config{
		Workers:        cfg.Workers,
		CoresPerWorker: cfg.CoresPerWorker,
		WorkerDisk:     cfg.WorkerDisk,
		StartupSpread:  cfg.StartupSpread,
		SpeedSpread:    cfg.SpeedSpread,
		Seed:           cfg.Seed,
	}
	if cfg.Scheduler == SchedDask {
		n := cfg.CoresPerWorker
		poolCfg.Workers = cfg.Workers * n
		poolCfg.CoresPerWorker = 1
		poolCfg.WorkerDisk = cfg.WorkerDisk / units.Bytes(n)
		poolCfg.WorkerNIC = params.WorkerNIC / units.BytesPerSec(n)
	}
	st.pool = cluster.New(poolCfg)
	st.eng = st.pool.Eng
	st.net = st.pool.Net
	st.fs = storage.NewSharedFS(st.eng, st.net, cfg.FS)
	st.rng = randx.NewStream(cfg.Seed, 13)
	st.reps = sched.NewReplicas()
	st.gov = core.NewGovernor(cfg.TransferCap)
	st.attempt = make(map[dag.Key]int)
	st.execing = make(map[dag.Key]bool)
	st.assigned = make(map[dag.Key]int)
	st.imported = make(map[int]bool)
	st.dispatched = make(map[dag.Key]bool)
	st.retired = make(map[dag.Key]bool)
	st.dispatchAt = make(map[dag.Key]time.Duration)
	st.execAt = make(map[dag.Key]time.Duration)
	st.readyAt = make(map[dag.Key]time.Duration)
	st.refs = make(map[storage.FileID]int)
	for _, k := range wl.Graph.Keys() {
		spec := wl.Graph.Task(k).Spec.(*core.SimSpec)
		for _, f := range spec.Inputs {
			st.refs[f]++
		}
		for _, d := range wl.Graph.Task(k).Deps {
			st.refs[core.OutputFileID(d)]++
		}
	}
	// The root's output is the workflow result; never collect it.
	st.refs[core.OutputFileID(wl.Root)]++

	// Dask.Distributed cannot run these workloads at large scale (§V.B).
	if cfg.Scheduler == SchedDask && cfg.Cores() >= params.DaskCrashCores {
		st.res.Failure = fmt.Sprintf("dask.distributed: workers and application crash/hang at %d cores", cfg.Cores())
		return &st.res
	}

	// Depth-priority dispatch: reductions run as soon as their inputs
	// exist, so intermediates are consumed (and garbage-collected) at the
	// rate they are produced instead of accumulating across the whole map
	// phase — essential for the 108GB worker disks at small scale.
	tr, err := dag.NewTrackerPrio(wl.Graph, wl.Graph.Depths())
	if err != nil {
		st.res.Failure = err.Error()
		return &st.res
	}
	st.tracker = tr

	for f, size := range wl.DatasetFiles {
		st.reps.SetSize(string(f), int64(size))
	}
	for _, k := range wl.Graph.Keys() {
		spec := wl.Graph.Task(k).Spec.(*core.SimSpec)
		st.reps.SetSize(string(core.OutputFileID(k)), int64(spec.OutputSize))
	}

	st.res.PeakCachePerWorker = make([]units.Bytes, len(st.pool.Workers))
	st.res.BusyPerWorker = make([]time.Duration, len(st.pool.Workers))

	// The whole graph is known up front; submit events land at t=0.
	if cfg.Recorder != nil {
		for _, k := range wl.Graph.Topo() {
			st.record(obs.Event{Type: obs.EvTaskSubmit, Task: string(k)})
		}
	}

	st.pool.Start(func(n *cluster.Node) {
		st.record(obs.Event{Type: obs.EvWorkerJoin, Worker: n.Name,
			Detail: fmt.Sprintf("%d cores", n.Cores)})
		st.schedule()
	})
	if cfg.PreemptFraction > 0 {
		st.pool.SchedulePreemptions(cfg.PreemptFraction, cfg.PreemptWindow, st.onPreempt)
	}
	st.sampleLoop()

	st.eng.RunUntil(cfg.Horizon, func() bool { return st.done })
	if !st.done {
		if st.res.Failure == "" {
			free := 0
			for _, w := range st.pool.Workers {
				if w.Alive {
					free += w.FreeCores
				}
			}
			snap := st.tracker.Snapshot()
			st.res.Failure = fmt.Sprintf(
				"horizon %v exceeded (%d/%d done; waiting=%d ready=%d running=%d execing=%d dispatched=%d alive=%d freeCores=%d govQ=%d flows=%d)",
				cfg.Horizon, snap.Done, wl.Graph.Len(), snap.Waiting, snap.Ready, snap.Running,
				len(st.execing), len(st.dispatched), st.pool.AliveWorkers(), free,
				st.gov.QueueLen(), st.net.ActiveFlows)
		}
		st.res.Runtime = st.eng.Now()
	}
	st.finishStats()
	return &st.res
}

// ---- sampling ----

func (st *state) sampleLoop() {
	var tick func()
	tick = func() {
		if st.done {
			return
		}
		st.takeSample()
		st.eng.Schedule(st.cfg.SampleEvery, tick)
	}
	st.eng.Schedule(0, tick)
}

func (st *state) takeSample() {
	snap := st.tracker.Snapshot()
	s := Sample{
		T:       st.eng.Now(),
		Running: len(st.execing),
		Waiting: snap.Waiting + snap.Ready,
		Done:    snap.Done,
	}
	st.res.Samples = append(st.res.Samples, s)
	if st.cfg.RecordPerWorker {
		caches := make([]units.Bytes, len(st.pool.Workers))
		active := make([]int, len(st.pool.Workers))
		for i, w := range st.pool.Workers {
			caches[i] = w.Disk.Used()
			active[i] = w.Cores - w.FreeCores
		}
		st.res.CacheSeries = append(st.res.CacheSeries, caches)
		st.res.ActiveTasks = append(st.res.ActiveTasks, active)
	}
}

// inPipeline counts tasks dispatched (staging or moving) but not executing.
func (st *state) inPipeline() int {
	n := 0
	for k := range st.dispatched {
		if !st.execing[k] {
			n++
		}
	}
	return n
}

// ---- manager serial server ----

// mgrOp runs fn after the manager's serial queue reaches it; each op costs
// the given CPU time on the single-threaded manager.
func (st *state) mgrOp(cost time.Duration, fn func()) {
	now := st.eng.Now()
	if st.mgrFree < now {
		st.mgrFree = now
	}
	st.mgrFree += cost
	st.eng.ScheduleAt(st.mgrFree, fn)
}

func (st *state) dispatchCost() time.Duration {
	if st.cfg.Scheduler == SchedDask {
		return time.Duration(float64(params.DaskSchedulerOverhead) * params.DaskSchedulerScale(len(st.pool.Workers)))
	}
	if st.cfg.Serverless {
		return params.DispatchCostFunctionCall
	}
	return params.DispatchCostTask
}

func (st *state) collectCost() time.Duration {
	if st.cfg.Scheduler == SchedDask {
		return time.Duration(float64(params.DaskSchedulerOverhead) * params.DaskSchedulerScale(len(st.pool.Workers)) / 2)
	}
	return params.CollectCost
}

// ---- scheduling ----

func (st *state) schedule() {
	if st.done {
		return
	}
	if st.pool.AliveWorkers() == 0 && st.eng.Now() > st.cfg.StartupSpread {
		// Every worker is gone (preempted or disk-failed); nothing can
		// ever run again. Fail fast instead of grinding to the horizon.
		st.done = true
		st.res.Runtime = st.eng.Now()
		st.res.Failure = "all workers lost"
		return
	}
	for {
		peek := st.tracker.PeekReady(1)
		if len(peek) == 0 {
			return
		}
		k := peek[0]
		spec := st.wl.Graph.Task(k).Spec.(*core.SimSpec)
		inputs := st.inputFiles(k, spec)
		names := make([]string, len(inputs))
		for i, f := range inputs {
			names[i] = string(f)
		}

		// Present candidates in ascending node id (pool order) so the
		// policy's first-wins tie-break reproduces the historical
		// lowest-id determinism.
		st.schedCands = st.schedCands[:0]
		for _, w := range st.pool.Workers {
			if w.Alive && w.FreeCores > 0 {
				st.schedCands = append(st.schedCands, sched.Candidate{
					ID:         w.ID,
					Cores:      w.Cores,
					FreeCores:  w.FreeCores,
					LocalBytes: st.reps.LocalBytes(w.ID, names),
				})
			}
		}
		if len(st.schedCands) == 0 {
			return
		}
		task := sched.Task{ID: string(k), Cores: 1}
		idx, score := st.policy.Pick(&task, st.schedCands)
		if idx < 0 {
			return
		}
		nodeID := st.schedCands[idx].ID
		node := st.pool.Workers[nodeID-1]

		got := st.tracker.NextReady(1)
		if len(got) != 1 || got[0] != k {
			return // defensive; PeekReady/NextReady disagree only on bugs
		}
		if err := node.Busy(1); err != nil {
			st.tracker.Requeue(k)
			return
		}
		st.assigned[k] = nodeID
		st.dispatched[k] = true
		st.attempt[k]++
		att := st.attempt[k]
		now := st.eng.Now()
		wait := now - st.readyAt[k] // zero-value readyAt = ready since t0
		if wait < 0 {
			wait = 0
		}
		st.res.QueueWaitTotal += wait
		st.res.QueueWaitCount++
		if st.cfg.RecordTrace {
			st.dispatchAt[k] = now
		}
		if st.cfg.Recorder != nil {
			detail := fmt.Sprintf("policy=%s score=%g", st.policy.Name, score)
			st.record(obs.Event{Type: obs.EvSchedDecision, Task: string(k),
				Worker: node.Name, Dur: wait, Detail: detail})
			st.record(obs.Event{Type: obs.EvTaskDispatch, Task: string(k),
				Worker: node.Name, Attempt: att - 1, Dur: wait, Detail: detail})
		}
		st.mgrOp(st.dispatchCost(), func() { st.sendPayload(k, att) })
	}
}

// inputFiles lists a task's input files: dataset files plus dep outputs.
func (st *state) inputFiles(k dag.Key, spec *core.SimSpec) []storage.FileID {
	var files []storage.FileID
	files = append(files, spec.Inputs...)
	for _, d := range st.wl.Graph.Task(k).Deps {
		files = append(files, core.OutputFileID(d))
	}
	return files
}

// stale reports whether a callback belongs to a superseded attempt.
func (st *state) stale(k dag.Key, att int) bool {
	return st.done || st.attempt[k] != att
}

// abandon releases a task's dispatch after its worker died or inputs were
// lost; the tracker has already been updated by the preemption path.
func (st *state) abandon(k dag.Key) {
	delete(st.dispatched, k)
	delete(st.execing, k)
	delete(st.assigned, k)
}

// sendPayload models the dispatch message + serialized function transfer.
func (st *state) sendPayload(k dag.Key, att int) {
	if st.stale(k, att) {
		return
	}
	node := st.node(k)
	if node == nil || !node.Alive {
		return // preemption path requeued it already
	}
	payload := params.TaskPayloadBytes
	if st.cfg.Serverless {
		payload = params.FCPayloadBytes
	}
	st.net.Transfer(st.pool.Manager.EP, node.EP, payload, func() {
		if st.stale(k, att) {
			return
		}
		st.stageInputs(k, att)
	})
}

// stageInputs moves every missing input to the task's worker, then starts
// execution.
func (st *state) stageInputs(k dag.Key, att int) {
	node := st.node(k)
	if node == nil || !node.Alive {
		return
	}
	spec := st.wl.Graph.Task(k).Spec.(*core.SimSpec)
	missing := 0
	var onArrive func()
	start := func() { st.startExec(k, att) }

	files := st.inputFiles(k, spec)
	for _, f := range files {
		if node.Disk.Has(f) {
			continue
		}
		missing++
	}
	if missing == 0 {
		start()
		return
	}
	remaining := missing
	onArrive = func() {
		remaining--
		if remaining == 0 {
			start()
		}
	}
	for _, f := range files {
		if node.Disk.Has(f) {
			continue
		}
		st.stageOne(k, att, f, node, onArrive)
	}
}

// stageOne moves one file to node.
func (st *state) stageOne(k dag.Key, att int, f storage.FileID, node *cluster.Node, onArrive func()) {
	size := units.Bytes(st.reps.Size(string(f)))
	_, isDataset := st.wl.DatasetFiles[f]

	landFrom := func(src string) func() {
		return func() {
			if st.stale(k, att) || !node.Alive {
				return
			}
			if err := node.Disk.Put(f, size); err != nil {
				// Cache overflow: the worker fails and is preempted
				// (Fig. 11a's X marks).
				st.res.DiskFailures++
				st.failNode(node)
				return
			}
			st.record(obs.Event{Type: obs.EvTransferDone, Src: src,
				Dst: node.Name, Bytes: int64(size), Detail: string(f)})
			st.bumpPeak(node)
			st.reps.Add(string(f), node.ID)
			onArrive()
		}
	}
	startTransfer := func(src string) {
		st.record(obs.Event{Type: obs.EvTransferStart, Src: src,
			Dst: node.Name, Bytes: int64(size), Detail: string(f)})
	}

	if st.cfg.Flow == FlowManager {
		// Work Queue path: everything relays through the manager.
		if isDataset && !st.pool.Manager.Disk.Has(f) {
			st.fs.Read(st.pool.Manager.EP, size, func() {
				st.pool.Manager.Disk.Put(f, size)
				st.reps.Add(string(f), st.pool.Manager.ID)
				st.res.FSReadBytes += size
				st.res.ManagerCount++
				startTransfer(st.pool.Manager.Name)
				st.net.Transfer(st.pool.Manager.EP, node.EP, size, landFrom(st.pool.Manager.Name))
			})
			return
		}
		st.res.ManagerCount++
		startTransfer(st.pool.Manager.Name)
		st.net.Transfer(st.pool.Manager.EP, node.EP, size, landFrom(st.pool.Manager.Name))
		return
	}

	// TaskVine path: peer transfer if any worker holds it; dataset files
	// come from the shared filesystem directly.
	holders := st.liveHolders(f, node.ID)
	if len(holders) == 0 {
		if isDataset {
			startTransfer(st.fs.EP.Name)
			st.fs.Read(node.EP, size, func() {
				st.res.FSReadBytes += size
				landFrom(st.fs.EP.Name)()
			})
			return
		}
		if st.pool.Manager.Disk.Has(f) {
			startTransfer(st.pool.Manager.Name)
			st.net.Transfer(st.pool.Manager.EP, node.EP, size, landFrom(st.pool.Manager.Name))
			return
		}
		// Intermediate with no live replica anywhere: lost to preemption
		// or garbage-collected after its first consumers finished. If the
		// producer is Done, re-run it (this rolls our own task back to
		// Waiting, so this staging attempt goes stale). If the producer is
		// already re-running, poll until its output reappears.
		if prod, ok := keyOfOutput(f); ok && st.tracker.State(prod) == dag.Done {
			st.reviveProducer(prod)
			return
		}
		st.eng.Schedule(500*time.Millisecond, func() {
			if st.stale(k, att) || !node.Alive {
				return
			}
			st.stageOne(k, att, f, node, onArrive)
		})
		return
	}

	req := core.TransferRequest{File: f, Dest: node.ID}
	started := false
	abandoned := false
	st.gov.Request(req, func(maxLoad int) int {
		return st.pickSource(f, node.ID, maxLoad)
	}, func(src int) {
		if abandoned {
			// The watchdog already rerouted this staging; just return the
			// granted slot.
			st.transferDone(src)
			return
		}
		started = true
		st.res.PeerCount++
		srcNode := st.pool.Workers[src-1]
		startTransfer(srcNode.Name)
		st.net.Transfer(srcNode.EP, node.EP, size, func() {
			st.transferDone(src)
			if !srcNode.Alive {
				// Source died mid-transfer: data never fully arrived.
				st.eng.Schedule(0, func() {
					if !st.stale(k, att) && node.Alive {
						st.stageOne(k, att, f, node, onArrive)
					}
				})
				return
			}
			landFrom(srcNode.Name)()
		})
	})
	// Watchdog: a queued request whose last source dies would otherwise
	// wait forever. Re-route through the fallback paths if that happens.
	var watch func()
	watch = func() {
		if started || abandoned || st.stale(k, att) || !node.Alive {
			return
		}
		if len(st.liveHolders(f, node.ID)) == 0 {
			abandoned = true
			st.stageOne(k, att, f, node, onArrive)
			return
		}
		st.eng.Schedule(time.Second, watch)
	}
	st.eng.Schedule(time.Second, watch)
}

// pickSource returns the live holder of f (≠dest) with the least outbound
// load under maxLoad, or -1.
func (st *state) pickSource(f storage.FileID, dest, maxLoad int) int {
	best, bestLoad := -1, maxLoad
	for _, h := range st.reps.Holders(string(f)) {
		if h == dest || h == st.pool.Manager.ID {
			continue
		}
		w := st.workerByID(h)
		if w == nil || !w.Alive {
			continue
		}
		if load := st.gov.Outbound(h); load < bestLoad {
			best, bestLoad = h, load
		}
	}
	return best
}

// transferDone frees governor capacity (queued transfers retry inside).
func (st *state) transferDone(src int) {
	st.gov.Done(src)
}

// ---- execution ----

// startExec charges startup + imports, then occupies the core for the
// compute time.
func (st *state) startExec(k dag.Key, att int) {
	if st.stale(k, att) {
		return
	}
	node := st.node(k)
	if node == nil || !node.Alive {
		return
	}
	spec := st.wl.Graph.Task(k).Spec.(*core.SimSpec)

	startup := st.startupCost(node)
	compute := spec.Compute
	if node.Speed > 0 && node.Speed != 1 {
		compute = time.Duration(float64(compute) / node.Speed)
	}
	total := startup + compute
	st.execing[k] = true
	if st.cfg.RecordTrace {
		st.execAt[k] = st.eng.Now()
	}
	st.record(obs.Event{Type: obs.EvTaskStart, Task: string(k),
		Worker: node.Name, Attempt: att - 1})
	st.eng.Schedule(total, func() {
		if st.stale(k, att) || !node.Alive {
			return
		}
		delete(st.execing, k)
		st.res.BusyPerWorker[node.ID-1] += total
		st.res.TaskExec = append(st.res.TaskExec, total)
		if st.cfg.RecordTrace {
			st.res.Trace = append(st.res.Trace, TaskEvent{
				Key:      string(k),
				Worker:   node.ID,
				Attempt:  att,
				Dispatch: st.dispatchAt[k],
				Start:    st.execAt[k],
				End:      st.eng.Now(),
			})
		}
		st.record(obs.Event{Type: obs.EvTaskDone, Task: string(k),
			Worker: node.Name, Attempt: att - 1, Dur: total})
		st.completeOnWorker(k, att, node)
	})
}

// startupCost models §III.C / §IV.B: wrapper + interpreter for standard
// tasks, fork for function calls; imports per the hoisting policy.
func (st *state) startupCost(node *cluster.Node) time.Duration {
	importFS := st.cfg.ImportFS
	if importFS.Name == "" {
		if st.cfg.ImportsLocal {
			importFS = params.LocalDisk
		} else {
			importFS = params.VAST
		}
	}
	setup := func(d time.Duration) {
		st.record(obs.Event{Type: obs.EvLibrarySetup, Worker: node.Name,
			Dur: d, Detail: importFS.Name})
	}
	if st.cfg.Scheduler == SchedDask {
		cost := params.DaskWorkerOverhead
		if !st.imported[node.ID] {
			st.imported[node.ID] = true
			imp := params.ImportCost(importFS)
			setup(imp)
			cost += imp
		}
		return cost
	}
	if !st.cfg.Serverless {
		return params.TaskStartup + params.ImportCost(importFS)
	}
	cost := params.FCInvokeOverhead
	if st.cfg.Hoist {
		if !st.imported[node.ID] {
			st.imported[node.ID] = true
			imp := params.ImportCost(importFS)
			setup(imp)
			cost += imp
		}
	} else {
		cost += params.ImportCost(importFS)
	}
	return cost
}

// completeOnWorker stores the output locally, then routes the result per
// the data-flow model and retires the task at the manager.
func (st *state) completeOnWorker(k dag.Key, att int, node *cluster.Node) {
	spec := st.wl.Graph.Task(k).Spec.(*core.SimSpec)
	out := core.OutputFileID(k)
	if spec.OutputSize > 0 {
		if err := node.Disk.Put(out, spec.OutputSize); err != nil {
			st.res.DiskFailures++
			st.failNode(node)
			return
		}
		st.bumpPeak(node)
		st.reps.Add(string(out), node.ID)
	}
	node.Release(1)

	retire := func() {
		st.mgrOp(st.collectCost(), func() {
			if st.stale(k, att) {
				return
			}
			st.retire(k)
		})
	}
	if st.cfg.Flow == FlowManager && spec.OutputSize > 0 {
		// Output streams back to the manager before the task retires.
		st.net.Transfer(node.EP, st.pool.Manager.EP, spec.OutputSize, func() {
			st.pool.Manager.Disk.Put(out, spec.OutputSize)
			st.reps.Add(string(out), st.pool.Manager.ID)
			retire()
		})
		return
	}
	// TaskVine: only a completion notice travels.
	st.net.Transfer(node.EP, st.pool.Manager.EP, params.ResultNoticeBytes, func() { retire() })
}

// retire finalizes a completed task at the manager.
func (st *state) retire(k dag.Key) {
	delete(st.dispatched, k)
	delete(st.assigned, k)
	if st.tracker.State(k) != dag.Running {
		return // rolled back by recovery while the notice was in flight
	}
	newlyReady, err := st.tracker.Complete(k)
	if err != nil {
		return
	}
	for _, r := range newlyReady {
		st.readyAt[r] = st.eng.Now()
	}
	st.res.TasksDone++
	// Garbage-collect inputs this completion released (first run only; a
	// recovery re-run consumes inputs whose refs were already returned).
	if !st.retired[k] {
		st.retired[k] = true
		spec := st.wl.Graph.Task(k).Spec.(*core.SimSpec)
		for _, f := range st.inputFiles(k, spec) {
			st.refs[f]--
			if st.refs[f] <= 0 {
				st.evict(f)
			}
		}
	}
	if st.tracker.State(st.wl.Root) == dag.Done && st.tracker.AllDone() {
		st.finish()
		return
	}
	if st.tracker.State(st.wl.Root) == dag.Done {
		// Root result exists; remaining tasks are re-runs whose outputs
		// nobody needs anymore. Declare success.
		st.finish()
		return
	}
	st.schedule()
}

func (st *state) finish() {
	st.done = true
	st.res.Completed = true
	st.res.Runtime = st.eng.Now()
	st.takeSample()
}

// ---- failure handling ----

// failNode kills a worker (disk overflow) — same consequences as
// preemption.
func (st *state) failNode(node *cluster.Node) {
	st.pool.Preempt(node)
	st.onPreempt(node)
}

// onPreempt handles the loss of a worker.
func (st *state) onPreempt(node *cluster.Node) {
	if st.done {
		return
	}
	st.res.Preempted++
	st.record(obs.Event{Type: obs.EvWorkerLost, Worker: node.Name})

	// Requeue its in-flight tasks.
	for k, nid := range st.assigned {
		if nid != node.ID {
			continue
		}
		st.abandon(k)
		st.attempt[k]++ // invalidate outstanding callbacks
		if st.tracker.State(k) == dag.Running {
			st.tracker.Requeue(k)
			st.readyAt[k] = st.eng.Now()
			st.res.TasksRerun++
			st.record(obs.Event{Type: obs.EvTaskRetry, Task: string(k),
				Worker: node.Name, Attempt: st.attempt[k] - 1, Detail: "worker lost"})
		}
	}

	// Replicas on the node are gone; recover lost outputs that are still
	// needed by re-running their producers.
	var lost []dag.Key
	for _, name := range st.reps.DropHolder(node.ID) {
		f := storage.FileID(name)
		k, ok := keyOfOutput(f)
		if !ok {
			continue // dataset files persist on the shared FS
		}
		if st.pool.Manager.Disk.Has(f) {
			continue // manager copy survives (Work Queue mode)
		}
		if st.tracker.State(k) != dag.Done {
			continue
		}
		if !st.outputStillNeeded(k) {
			continue
		}
		lost = append(lost, k)
	}
	if len(lost) > 0 {
		st.applyInvalidation(lost)
	}
	st.schedule()
}

// reviveProducer re-runs a Done task whose output vanished (preemption or
// post-consumption garbage collection) and is needed again.
func (st *state) reviveProducer(prod dag.Key) {
	if st.tracker.State(prod) != dag.Done {
		return
	}
	st.applyInvalidation([]dag.Key{prod})
	st.schedule()
}

// applyInvalidation rolls back the given Done tasks in the tracker and
// aborts any in-flight dispatch of tasks the rollback touched.
func (st *state) applyInvalidation(lost []dag.Key) {
	changed, err := st.tracker.Invalidate(lost)
	if err != nil {
		return
	}
	st.res.TasksRerun += len(lost)
	for _, k := range lost {
		st.readyAt[k] = st.eng.Now() // rolled back to re-run; wait clock restarts
		st.record(obs.Event{Type: obs.EvTaskRetry, Task: string(k),
			Attempt: st.attempt[k], Detail: "output lost"})
	}
	for _, k := range changed {
		// Any rolled-back task that was in flight must abandon its
		// dispatch and return its core.
		if st.assigned[k] != 0 {
			st.attempt[k]++
			if n := st.node(k); n != nil && n.Alive {
				n.Release(1)
			}
			st.abandon(k)
		}
	}
}

// evict removes a no-longer-needed file from every worker cache (dataset
// files persist on the shared FS; the manager's copies persist in Work
// Queue mode).
func (st *state) evict(f storage.FileID) {
	size := st.reps.Size(string(f))
	for _, h := range st.reps.Holders(string(f)) {
		if h == st.pool.Manager.ID {
			continue
		}
		if w := st.workerByID(h); w != nil {
			w.Disk.Del(f)
			st.record(obs.Event{Type: obs.EvCacheEvict, Worker: w.Name,
				Bytes: size, Detail: string(f)})
		}
		st.reps.Remove(string(f), h)
	}
}

// outputStillNeeded reports whether a done task's output feeds any unfinished
// dependent (or is the workflow root).
func (st *state) outputStillNeeded(k dag.Key) bool {
	if k == st.wl.Root {
		return true
	}
	for _, d := range st.wl.Graph.Dependents(k) {
		if st.tracker.State(d) != dag.Done {
			return true
		}
	}
	return false
}

func keyOfOutput(f storage.FileID) (dag.Key, bool) {
	s := string(f)
	if len(s) > 4 && s[:4] == "out:" {
		return dag.Key(s[4:]), true
	}
	return "", false
}

// ---- helpers ----

func (st *state) node(k dag.Key) *cluster.Node {
	id, ok := st.assigned[k]
	if !ok {
		return nil
	}
	return st.workerByID(id)
}

// liveHolders lists live worker nodes (≠exclude) holding f.
func (st *state) liveHolders(f storage.FileID, exclude int) []int {
	var out []int
	for _, h := range st.reps.Holders(string(f)) {
		if h == exclude || h == st.pool.Manager.ID {
			continue
		}
		if w := st.workerByID(h); w != nil && w.Alive {
			out = append(out, h)
		}
	}
	return out
}

func (st *state) workerByID(id int) *cluster.Node {
	if id <= 0 || id > len(st.pool.Workers) {
		return nil
	}
	return st.pool.Workers[id-1]
}

func (st *state) bumpPeak(node *cluster.Node) {
	i := node.ID - 1
	if u := node.Disk.Used(); u > st.res.PeakCachePerWorker[i] {
		st.res.PeakCachePerWorker[i] = u
	}
}

func (st *state) finishStats() {
	st.res.TransferMatrix = st.net.Transferred
	mgr := st.pool.Manager.EP
	st.res.ManagerMoved = mgr.BytesSent + mgr.BytesReceived
	var max units.Bytes
	for src, row := range st.net.Transferred {
		if src == st.fs.EP.Name {
			continue
		}
		for _, b := range row {
			if b > max {
				max = b
			}
		}
	}
	st.res.MaxPairBytes = max

	// Project the run's counters into the shared observability schema.
	snap := &st.res.Snapshot
	snap.TasksDone = st.res.TasksDone
	snap.Retries = st.res.TasksRerun
	snap.WorkersLost = st.res.Preempted
	snap.PeerTransfers = st.res.PeerCount
	snap.ManagerTransfers = st.res.ManagerCount
	snap.DiskFailures = st.res.DiskFailures
	snap.FSReadBytes = int64(st.res.FSReadBytes)
	fsName := st.fs.EP.Name
	mgrName := st.pool.Manager.Name
	for src, row := range st.net.Transferred {
		for dst, b := range row {
			switch {
			case src == fsName || dst == fsName:
				// shared-FS traffic, counted via FSReadBytes
			case src == mgrName || dst == mgrName:
				snap.ManagerBytes += int64(b)
			default:
				snap.PeerBytes += int64(b)
			}
		}
	}
	for _, p := range st.res.PeakCachePerWorker {
		if int64(p) > snap.CacheHighWater {
			snap.CacheHighWater = int64(p)
		}
	}
}
