// Package params centralizes the calibrated constants of the simulation
// plane: hardware capacities, storage characteristics, and software
// overheads. Every value is either taken from the paper's setup description
// (§IV: 12-core 2.50GHz Xeons, 96GB RAM, 108GB disk workers; 10GigE campus
// fabric; HDFS on spinning disk vs VAST on NVMe) or calibrated so the
// regenerated tables and figures match the paper's *shape* — who wins, by
// roughly what factor, where crossovers fall. EXPERIMENTS.md records
// paper-vs-measured for every artifact.
package params

import (
	"time"

	"hepvine/internal/units"
)

// ---- network fabric ----

// Network capacities of the campus cluster fabric.
var (
	// WorkerNIC is each compute node's link (10 GigE campus cluster).
	WorkerNIC = units.Gbps(10)
	// ManagerNIC is the manager node's link. The same 10 GigE — which is
	// exactly why routing all data through the manager (Work Queue)
	// bottlenecks at scale (Fig. 7).
	ManagerNIC = units.Gbps(10)
	// NetLatency is the one-way per-endpoint fabric latency contribution.
	NetLatency = 250 * time.Microsecond
)

// ---- storage systems (§II.D, §IV.A) ----

// FS describes a shared filesystem's performance envelope.
type FS struct {
	Name string
	// OpLatency is the per-operation (metadata + first byte) latency.
	OpLatency time.Duration
	// AggregateRead caps total read bandwidth across all clients.
	AggregateRead units.BytesPerSec
	// AggregateWrite caps total write bandwidth.
	AggregateWrite units.BytesPerSec
}

// HDFS models the legacy 644TB spinning-disk cluster: high throughput in
// bulk, high per-operation latency (triple-replicated commodity disks).
// The aggregate read rate reflects the random-read envelope the analysis
// workload actually sees (many concurrent column-chunk reads are seek-bound
// on spinning disks), not the sequential streaming peak.
var HDFS = FS{
	Name:           "hdfs",
	OpLatency:      25 * time.Millisecond,
	AggregateRead:  units.GBps(1.0),
	AggregateWrite: units.MBps(400),
}

// VAST models the 918TB NVMe parallel filesystem: low latency POSIX access
// and higher aggregate throughput.
var VAST = FS{
	Name:           "vast",
	OpLatency:      800 * time.Microsecond,
	AggregateRead:  units.GBps(40),
	AggregateWrite: units.GBps(20),
}

// LocalDisk models worker-node local storage (where TaskVine keeps its
// cache): modest bandwidth but near-zero access latency.
var LocalDisk = FS{
	Name:           "local",
	OpLatency:      60 * time.Microsecond,
	AggregateRead:  units.MBps(900), // per node
	AggregateWrite: units.MBps(600),
}

// ---- worker nodes (§IV: "200 12-core workers, ... 96GB RAM, 108GB disk") ----

// Standard worker-node shape for DV3 runs.
var (
	WorkerCores  = 12
	WorkerRAM    = units.GBf(96)
	WorkerDisk   = units.GBf(108)
	WorkerCPUGHz = 2.50
)

// RS-TriPhoton workers get bigger allocations (§V.B: "700GB disk and 200GB
// of RAM").
var (
	TriPhotonWorkerDisk = units.GBf(700)
	TriPhotonWorkerRAM  = units.GBf(200)
)

// PreemptFraction is the opportunistic-cluster preemption rate: "the
// preemption of up to 1% of workers in each run" (§IV).
var PreemptFraction = 0.01

// WorkerStartupSpread is the window over which batch-submitted workers come
// online (HTCondor scheduling jitter).
var WorkerStartupSpread = 30 * time.Second

// WorkerSpeedSpread is the CPU heterogeneity of the opportunistic pool
// (§IV: "heterogeneous campus HTCondor cluster"): node speeds are drawn
// from [1-s, 1+s] around nominal.
var WorkerSpeedSpread = 0.15

// ---- software overheads (§III.C, §IV.B) ----

// Per-task costs by execution paradigm. "Standard" tasks serialize the
// function, ship it, start a Python interpreter, and import libraries every
// time; serverless function calls hit a persistent library process.
var (
	// DispatchCostTask is the manager CPU time to serialize, record, and
	// transmit one standard task. The manager is a serial server, so this
	// bounds dispatch throughput at ~1/DispatchCostTask tasks/s — the
	// oscillation Stack 3 shows in Fig. 12.
	DispatchCostTask = 35 * time.Millisecond
	// DispatchCostFunctionCall is the same for a function invocation:
	// only the function name and arguments travel (§IV.B).
	DispatchCostFunctionCall = 600 * time.Microsecond
	// CollectCost is the manager CPU time to retire any completed task.
	CollectCost = 400 * time.Microsecond

	// TaskStartup is the on-worker cost of one standard task before user
	// code runs: wrapper script, interpreter start, function
	// deserialization. Library imports are charged separately.
	TaskStartup = 650 * time.Millisecond
	// FCInvokeOverhead is the on-worker cost of forking an invocation
	// inside a persistent library.
	FCInvokeOverhead = 40 * time.Millisecond

	// TaskPayloadBytes is the serialized-function traffic per standard
	// task (manager → worker); function calls send only arguments.
	TaskPayloadBytes = units.Bytes(512 << 10)
	FCPayloadBytes   = units.Bytes(4 << 10)
)

// Import model (Fig. 9/10): importing the analysis libraries touches many
// small files — a metadata-heavy walk plus bulk bytecode reads. Hoisting
// runs it once per LibraryTask instead of per invocation.
var (
	// ImportMetaOps is the number of filesystem metadata operations an
	// import sweep performs (path searches, stat calls).
	ImportMetaOps = 1200
	// ImportBytes is the bulk bytecode/shared-object volume read.
	ImportBytes = units.MBf(180)
)

// ImportCost computes the wall-clock cost of one import sweep against the
// given filesystem: metadata ops pay per-op latency, bulk bytes pay
// bandwidth. This is why hoisting matters most for fine-grained tasks and
// why local disk beats the shared filesystem for imports (Fig. 10).
func ImportCost(fs FS) time.Duration {
	meta := time.Duration(ImportMetaOps) * fs.OpLatency
	bulk := fs.AggregateRead.TimeFor(ImportBytes)
	return meta + bulk
}

// ---- Dask.Distributed comparator model (§V.B) ----

var (
	// DaskSchedulerOverhead is the central scheduler's per-task base cost.
	// Dask's pure-Python scheduler spends ~ms-scale time per task, and it
	// is the shared bottleneck for every worker. The effective cost grows
	// with worker count (see DaskSchedulerScale): more workers mean more
	// heartbeats, more connections, and more GIL contention inside the
	// scheduler process.
	DaskSchedulerOverhead = 10 * time.Millisecond
	// DaskWorkerOverhead is the per-task overhead on a single-core,
	// share-nothing Dask worker process (deserialization + GIL contention
	// with the worker's own communication threads).
	DaskWorkerOverhead = 800 * time.Millisecond
	// DaskCrashCores is the scale beyond which Dask.Distributed runs
	// "consistently fail with a combination of worker and application
	// crashes and hangs" on these workloads (§V.B). Runs at or above this
	// many cores are reported as failed.
	DaskCrashCores = 1200
	// DaskInstabilityCores is where per-run crash probability starts
	// growing; between here and DaskCrashCores runs degrade.
	DaskInstabilityCores = 600
)

// DaskSchedulerScale reports the multiplier on DaskSchedulerOverhead for a
// given worker-process count: per-task cost grows roughly linearly with the
// number of connected workers.
func DaskSchedulerScale(workers int) float64 {
	return 1 + float64(workers)/100
}

// ---- misc ----

// ResultNoticeBytes is the completion-message size (metadata only) a worker
// sends the manager when retaining outputs locally.
var ResultNoticeBytes = units.Bytes(2 << 10)

// DefaultTransferCapPerSource caps concurrent outbound peer transfers per
// worker (§IV.B): the live manager's transfer governor and the simulator's
// default both read it.
var DefaultTransferCapPerSource = 3

// ---- elasticity (internal/pool — autoscaled, preemption-tolerant pools) ----

// DefaultDrainGrace is the grace window for a worker preempted without an
// explicit notice period (cmd/vineworker's -drain-grace flag, the pool's
// drain and Worker.Drain(0)): long enough to finish a typical
// fine-grained task and evacuate sole-replica cache entries, short enough
// to respect an HTCondor-style eviction deadline.
var DefaultDrainGrace = 30 * time.Second

// DefaultPreemptWindow mirrors the simulator's preemption window: the
// interval over which PreemptFraction of the pool is evicted in each run
// (§IV). The live chaos plane compresses the same shape into test time.
var DefaultPreemptWindow = 10 * time.Minute

// DefaultPoolPoll mirrors the autoscaler's control-loop cadence: how often
// it samples queue backlog and task queue-wait before deciding to scale.
var DefaultPoolPoll = time.Second

// DefaultPoolCooldown mirrors the autoscaler's minimum spacing between
// scaling actions, so one burst of backlog cannot thrash the pool.
var DefaultPoolCooldown = 5 * time.Second

// DefaultPoolTasksPerWorker mirrors the autoscaler's target backlog per
// live worker: pending tasks beyond size×this grow the pool; a sustained
// backlog below the target (with idle polls) shrinks it.
var DefaultPoolTasksPerWorker = 4

// DefaultPoolIdlePolls mirrors how many consecutive under-target polls the
// autoscaler requires before scaling down — the hysteresis that keeps a
// briefly-quiet pool from shedding workers it is about to need.
var DefaultPoolIdlePolls = 3

// ---- multi-tenant gate (internal/gate — the analysis-facility front door) ----

// DefaultGateMaxSessions mirrors the gate's per-tenant cap on concurrently
// open sessions: enough for an analyst's handful of notebooks, small
// enough that one runaway client cannot exhaust the session table.
var DefaultGateMaxSessions = 8

// DefaultGateMaxInFlight mirrors the per-tenant cap on tasks submitted but
// not yet terminal. Sized to keep one tenant's backlog from monopolizing
// the ready heap while still covering a full DV3-scale graph.
var DefaultGateMaxInFlight = 1024

// DefaultGateSubmitRate mirrors the per-tenant token-bucket refill rate,
// in task submissions per second. Interactive resubmission of a few
// thousand-task graphs per minute fits; a tight submit loop does not.
var DefaultGateSubmitRate = 500.0

// DefaultGateSubmitBurst mirrors the token bucket's capacity: one whole
// medium graph may land in a single request before the rate applies.
var DefaultGateSubmitBurst = 1000

// DefaultGateQueueWeight mirrors the fair-share weight a tenant's queue
// gets when no explicit weight is configured.
var DefaultGateQueueWeight = 1.0

// DefaultGateDrainTimeout mirrors how long a shutting-down gate waits for
// in-flight sessions to finish before abandoning the drain.
var DefaultGateDrainTimeout = 30 * time.Second

// ---- manager federation (internal/foreman — hierarchical foremen) ----

// DefaultForemanFanout mirrors the default number of foremen a federated
// run stands up when the caller asks for federation without sizing it.
// Two shards is the smallest topology that exercises every cross-shard
// path (peer tickets, re-homing, lease replay) while still fitting on a
// laptop-scale loopback cluster.
var DefaultForemanFanout = 2

// DefaultForemanReportEvery mirrors the foreman's aggregation window:
// completions, replica addresses, and backlog accumulate locally and
// ship upward at this cadence (or immediately once a full lease batch
// has finished). Short enough that the root's view lags a shard by well
// under a heartbeat; long enough that a 10k-task burst reports in
// hundreds of frames, not 10k.
var DefaultForemanReportEvery = 200 * time.Millisecond
