package params

import (
	"testing"
	"time"
)

func TestStorageEnvelopeOrdering(t *testing.T) {
	// The §II.D/§IV.A premise: HDFS is high-latency, VAST low-latency,
	// local disk lowest; VAST has the highest aggregate throughput.
	if !(LocalDisk.OpLatency < VAST.OpLatency && VAST.OpLatency < HDFS.OpLatency) {
		t.Fatalf("latency ordering broken: %v %v %v",
			LocalDisk.OpLatency, VAST.OpLatency, HDFS.OpLatency)
	}
	if VAST.AggregateRead <= HDFS.AggregateRead {
		t.Fatal("VAST should out-read HDFS in aggregate")
	}
}

func TestImportCostOrdering(t *testing.T) {
	local, vast, hdfs := ImportCost(LocalDisk), ImportCost(VAST), ImportCost(HDFS)
	if !(local < vast && vast < hdfs) {
		t.Fatalf("import costs out of order: %v %v %v", local, vast, hdfs)
	}
	// Imports must be sub-second on local disk and multi-second on HDFS
	// (the Fig. 10 regime).
	if local > time.Second {
		t.Fatalf("local import cost %v implausibly high", local)
	}
	if hdfs < 5*time.Second {
		t.Fatalf("hdfs import cost %v implausibly low", hdfs)
	}
}

func TestDispatchCostOrdering(t *testing.T) {
	// The Table-I mechanism: function-call dispatch must be much cheaper
	// than standard-task dispatch, and worker-side invocation much cheaper
	// than interpreter startup.
	if DispatchCostFunctionCall*10 > DispatchCostTask {
		t.Fatalf("dispatch gap too small: %v vs %v", DispatchCostFunctionCall, DispatchCostTask)
	}
	if FCInvokeOverhead*5 > TaskStartup {
		t.Fatalf("startup gap too small: %v vs %v", FCInvokeOverhead, TaskStartup)
	}
	if FCPayloadBytes*10 > TaskPayloadBytes {
		t.Fatalf("payload gap too small: %v vs %v", FCPayloadBytes, TaskPayloadBytes)
	}
}

func TestDaskSchedulerScale(t *testing.T) {
	if DaskSchedulerScale(0) != 1 {
		t.Fatalf("scale(0) = %v", DaskSchedulerScale(0))
	}
	if DaskSchedulerScale(100) != 2 {
		t.Fatalf("scale(100) = %v", DaskSchedulerScale(100))
	}
	if DaskSchedulerScale(300) <= DaskSchedulerScale(60) {
		t.Fatal("scale must grow with workers")
	}
}

func TestClusterShapeConstants(t *testing.T) {
	// §IV: 12-core workers, 96GB RAM, 108GB disk; ≤1% preemption.
	if WorkerCores != 12 {
		t.Fatalf("cores = %d", WorkerCores)
	}
	if PreemptFraction <= 0 || PreemptFraction > 0.05 {
		t.Fatalf("preemption fraction = %v", PreemptFraction)
	}
	if WorkerSpeedSpread < 0 || WorkerSpeedSpread >= 0.5 {
		t.Fatalf("speed spread = %v", WorkerSpeedSpread)
	}
	if TriPhotonWorkerDisk <= WorkerDisk {
		t.Fatal("TriPhoton workers should have bigger disks (§V.B)")
	}
}

func TestElasticityDefaults(t *testing.T) {
	// The documented drain grace is 30s; the simulator preempts
	// PreemptFraction of the pool over a 10-minute window (§IV).
	if DefaultDrainGrace != 30*time.Second {
		t.Fatalf("DefaultDrainGrace = %v", DefaultDrainGrace)
	}
	if DefaultPreemptWindow != 10*time.Minute {
		t.Fatalf("DefaultPreemptWindow = %v", DefaultPreemptWindow)
	}
	// Autoscaler shape: hysteresis must actually damp — a scale decision
	// needs a cooldown longer than the sampling period and more than one
	// idle poll before shedding capacity.
	if DefaultPoolCooldown <= DefaultPoolPoll {
		t.Fatalf("cooldown %v must exceed poll %v", DefaultPoolCooldown, DefaultPoolPoll)
	}
	if DefaultPoolIdlePolls < 2 {
		t.Fatalf("idle polls = %d; scale-down needs hysteresis", DefaultPoolIdlePolls)
	}
	if DefaultPoolTasksPerWorker < 1 {
		t.Fatalf("tasks per worker = %d", DefaultPoolTasksPerWorker)
	}
}

func TestFederationDefaults(t *testing.T) {
	// Pin the federation defaults: the foreman's report cadence is a knob
	// the bench sweeps; drifting it silently would invalidate cross-PR
	// throughput comparisons.
	if DefaultForemanFanout != 2 {
		t.Fatalf("DefaultForemanFanout = %d", DefaultForemanFanout)
	}
	if DefaultForemanReportEvery != 200*time.Millisecond {
		t.Fatalf("DefaultForemanReportEvery = %v", DefaultForemanReportEvery)
	}
	// A report window at or above the 2s heartbeat would make the root
	// think a busy foreman went quiet; keep an order of magnitude of
	// headroom under vine's default liveness ping.
	if DefaultForemanReportEvery >= 2*time.Second/4 {
		t.Fatalf("report window %v too close to the heartbeat", DefaultForemanReportEvery)
	}
}
