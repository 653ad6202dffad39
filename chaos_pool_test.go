// Elastic-pool chaos soak: the quickstart MET workload on an autoscaled,
// preemptible worker pool, with two preemptions injected mid-run — one
// graceful drain with a generous grace window (the worker must evacuate
// its sole-replica output and exit clean) and one blown grace window (the
// worker dies mid-flight and the lineage/retry ladder recovers the lost
// work). The histograms must come out bit-identical to a fault-free run
// on the same pool, and the autoscaler must have grown the pool above its
// floor under the backlog.
package benchrun

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/obs"
	"hepvine/internal/pool"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

// elasticWorkload builds the same dataset and graph as runSoak so the
// fault-free and preempted passes are byte-comparable.
func elasticWorkload(t *testing.T) (*dag.Graph, dag.Key) {
	t.Helper()
	dir := t.TempDir()
	paths, err := rootio.WriteDataset(dir, rootio.DatasetSpec{
		Name: "ElasticMu", Files: 4, EventsPerFile: 8000,
		Gen: rootio.GenOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]coffea.FileInfo, len(paths))
	for i, p := range paths {
		files[i] = coffea.FileInfo{Path: p, NEvents: 8000}
	}
	chunks, err := coffea.PartitionPerFile("ElasticMu", files, 6)
	if err != nil {
		t.Fatal(err)
	}
	graph, root, err := coffea.BuildGraph("met", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	return graph, root
}

// runElastic executes one pass of the workload on an autoscaled pool of
// preemptible local workers (floor 2, ceiling 6). With preempt set, the
// completion stream drives two deterministic drains: the first processor
// output's worker gets a generous grace window (clean evacuation), and
// the next distinct worker to finish a processor task gets a 1ms window
// that is guaranteed to blow before its freshly produced sole-replica
// output can move.
func runElastic(t *testing.T, seed uint64, preempt bool) ([]byte, vine.ManagerStats, *obs.Recorder, *pool.Autoscaler) {
	t.Helper()
	apps.RegisterProcessors()
	if err := vine.RegisterLibrary(daskvine.NewLibrary(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	graph, root := elasticWorkload(t)

	rec := obs.NewRecorder()
	mgr, err := vine.NewManager(
		vine.WithPeerTransfers(true),
		vine.WithLibrary(daskvine.LibraryName, true),
		vine.WithRecorder(rec),
		vine.WithHeartbeat(50*time.Millisecond, 400*time.Millisecond),
		vine.WithMaxRetries(10),
		vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
		vine.WithRetrySeed(seed),
		vine.WithRecoveryTimeout(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	prov := pool.NewLocalProvider(mgr.Addr(), func(name string) []vine.Option {
		return []vine.Option{
			vine.WithCores(2),
			vine.WithCacheDir(t.TempDir()),
			vine.WithPreemptible(true),
			vine.WithRecorder(rec),
			vine.WithHeartbeat(50*time.Millisecond, 5*time.Second),
		}
	})
	defer prov.StopAll()
	scaler := pool.NewAutoscaler(mgr, prov, pool.Config{
		Min: 2, Max: 6,
		Poll:           10 * time.Millisecond,
		Cooldown:       40 * time.Millisecond,
		TasksPerWorker: 2,
		IdlePolls:      5,
		DrainGrace:     2 * time.Second,
	})
	scaler.Start()
	defer scaler.Stop()
	if err := mgr.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	opts := daskvine.Options{Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second}
	if preempt {
		var mu sync.Mutex
		var drained, blown string
		opts.OnTaskDone = func(key dag.Key, h *vine.TaskHandle) {
			if _, ok := graph.Task(key).Spec.(*coffea.ProcessSpec); !ok {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			w := prov.Worker(h.Worker())
			if w == nil {
				return
			}
			switch {
			case drained == "":
				// Graceful: the worker holds the sole replica of the output
				// it just produced; a generous window lets it offload and
				// exit clean.
				drained = h.Worker()
				w.Drain(2 * time.Second)
			case blown == "" && h.Worker() != drained:
				// Blown: 1ms cannot cover even a loopback evacuation, so the
				// grace timer kills the worker with its fresh output (and any
				// running tasks) still aboard.
				blown = h.Worker()
				w.Drain(time.Millisecond)
			}
		}
	}
	res, err := daskvine.Run(mgr, graph, root, opts)
	if err != nil {
		t.Fatalf("workload failed (preempt=%v): %v", preempt, err)
	}
	met := res.H["met"]
	if met == nil || met.Entries == 0 {
		t.Fatalf("empty MET histogram (preempt=%v)", preempt)
	}
	return met.Marshal(), mgr.Stats(), rec, scaler
}

// TestChaosElasticPreemptionSoak is the PR 9 acceptance soak: an
// autoscaled pool rides through one graceful drain (sole-replica output
// evacuated, zero-cost) and one blown grace window (worker lost mid-run,
// recovered through the retry/lineage ladder), finishing with histograms
// bit-identical to the fault-free pass while the pool demonstrably grew
// above its floor.
func TestChaosElasticPreemptionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	base, _, _, baseScaler := runElastic(t, 7, false)
	if peak := baseScaler.Peak(); peak <= 2 {
		t.Fatalf("baseline pool peaked at %d; autoscaler never grew above its floor", peak)
	}
	got, st, rec, scaler := runElastic(t, 7, true)
	if !bytes.Equal(base, got) {
		t.Fatalf("preempted run diverged from fault-free run: %d vs %d bytes", len(base), len(got))
	}
	if peak := scaler.Peak(); peak <= 2 {
		t.Fatalf("preempted pool peaked at %d; autoscaler never grew above its floor", peak)
	}
	// The autoscaler converges rather than oscillates: a handful of
	// cooldown-gated jumps (plus floor repair after the preemptions), not
	// a launch per poll.
	for pass, a := range map[string]*pool.Autoscaler{"baseline": baseScaler, "preempted": scaler} {
		if ups, _ := a.ScaleEvents(); ups > 4 {
			t.Fatalf("%s pass: autoscaler oscillated (%d scale-ups in one run)", pass, ups)
		}
	}
	if st.Preemptions < 2 {
		t.Fatalf("Preemptions = %d, want >= 2 (one graceful, one blown)", st.Preemptions)
	}
	if st.SoleReplicaOffloads < 1 {
		t.Fatalf("SoleReplicaOffloads = %d; the graceful drain must evacuate its output", st.SoleReplicaOffloads)
	}
	if st.WorkersLost < 1 {
		t.Fatalf("WorkersLost = %d; the blown grace window must surface as a loss", st.WorkersLost)
	}
	if st.Retries+st.LineageReruns < 1 {
		t.Fatalf("Retries = %d, LineageReruns = %d; the blown window must engage the recovery ladder",
			st.Retries, st.LineageReruns)
	}

	// Trace: the pool scaled up, both preemption notices landed, and at
	// least one sole-replica offload completed.
	var scaledUp, offloaded bool
	preempts := 0
	for _, ev := range rec.Events() {
		switch ev.Type {
		case obs.EvPoolScale:
			scaledUp = scaledUp || strings.HasPrefix(ev.Detail, "up:")
		case obs.EvWorkerPreempt:
			preempts++
		case obs.EvWorkerDrain:
			offloaded = offloaded || strings.Contains(ev.Detail, "offloaded")
		}
	}
	if !scaledUp {
		t.Fatal("no scale-up EvPoolScale in the trace")
	}
	if preempts < 2 {
		t.Fatalf("EvWorkerPreempt count = %d, want >= 2", preempts)
	}
	if !offloaded {
		t.Fatal("no completed sole-replica offload in the trace")
	}
}
