package vine

import (
	"fmt"
	"testing"
	"time"

	"hepvine/internal/obs"
)

// A graceful drain with a generous window must evacuate the drainer's
// sole-replica output to the surviving worker and let the worker exit
// clean: zero lineage re-runs, bytes still fetchable.
func TestGracefulDrainOffloadsSoleReplica(t *testing.T) {
	rec := obs.NewRecorder()
	m, ws := newCluster(t, 2, 2, WithRecorder(rec))
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("precious"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	cn, _ := h.Output("out")
	m.mu.Lock()
	var holderName string
	for _, wid := range m.reps.Holders(string(cn)) {
		holderName = m.workers[wid].name
	}
	m.mu.Unlock()
	if holderName == "" {
		t.Fatal("no worker holds the output")
	}
	var holder *Worker
	for _, w := range ws {
		if w.Name == holderName {
			holder = w
		}
	}

	holder.Drain(5 * time.Second)
	select {
	case <-holder.Done():
	case <-time.After(4 * time.Second):
		t.Fatal("drained worker did not exit inside its grace window")
	}

	st := m.Stats()
	if st.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", st.Preemptions)
	}
	if st.SoleReplicaOffloads < 1 {
		t.Fatalf("SoleReplicaOffloads = %d, want >= 1", st.SoleReplicaOffloads)
	}
	if st.LineageReruns != 0 {
		t.Fatalf("LineageReruns = %d; a clean drain must not cost a re-run", st.LineageReruns)
	}
	data, err := m.FetchBytes(cn)
	if err != nil {
		t.Fatalf("FetchBytes after drain: %v", err)
	}
	if string(data) != "echo:precious" {
		t.Fatalf("offloaded bytes differ: %q", data)
	}
	if st := m.Stats(); st.LineageReruns != 0 {
		t.Fatalf("LineageReruns = %d after fetch; the offloaded replica should have served it", st.LineageReruns)
	}

	// The trace must show the drain lifecycle: notice, offload, release.
	var preempt, offload, released bool
	for _, ev := range rec.Events() {
		switch ev.Type {
		case obs.EvWorkerPreempt:
			preempt = true
		case obs.EvWorkerDrain:
			if ev.Worker == holderName {
				offload = offload || containsStr(ev.Detail, "offload")
				released = released || containsStr(ev.Detail, "released")
			}
		}
	}
	if !preempt || !offload || !released {
		t.Fatalf("drain lifecycle incomplete in trace: preempt=%v offload=%v released=%v", preempt, offload, released)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// A drain whose grace window blows mid-task degrades to an ordinary
// worker loss: the in-flight task retries on a survivor and the workflow
// still completes.
func TestDrainBlownGraceRecoversViaRetry(t *testing.T) {
	m, ws := newCluster(t, 2, 1, WithMaxRetries(5))
	// Saturate both single-core workers so the drainer is guaranteed to
	// have a running task when its (tiny) grace expires.
	var hs []*TaskHandle
	for i := 0; i < 4; i++ {
		h, err := m.SubmitFunc(ModeFunctionCall, "testlib", "sleep50", []byte{byte(i)}, "out")
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	ws[0].Drain(time.Millisecond)
	select {
	case <-ws[0].Done():
	case <-time.After(3 * time.Second):
		t.Fatal("worker with blown grace did not exit")
	}
	for i, h := range hs {
		if err := h.Wait(10 * time.Second); err != nil {
			t.Fatalf("task %d after blown-grace preemption: %v", i, err)
		}
	}
	st := m.Stats()
	if st.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", st.Preemptions)
	}
	if st.WorkersLost < 1 {
		t.Fatalf("WorkersLost = %d; a blown grace must surface as a loss", st.WorkersLost)
	}
}

// Draining workers must stop receiving work immediately: everything
// submitted after the notice lands on the survivor.
func TestDrainingWorkerReceivesNoNewWork(t *testing.T) {
	m, ws := newCluster(t, 2, 2)
	// Quiesce, then drain w0 with a long window so it stays connected
	// (nothing to evacuate, but the release needs a monitor sweep).
	m.mu.Lock()
	var wid0 int = -1
	for id, w := range m.workers {
		if w.name == ws[0].Name {
			wid0 = id
		}
	}
	m.mu.Unlock()
	ws[0].Drain(10 * time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		draining := wid0 >= 0 && m.workers[wid0].draining
		m.mu.Unlock()
		if draining || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte(fmt.Sprintf("n%d", i)), "out")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	ran := 0
	for _, rec := range m.tasks {
		if rec.state == TaskDone && rec.worker == wid0 {
			ran++
		}
	}
	m.mu.Unlock()
	if ran > 0 {
		t.Fatalf("%d tasks ran on the draining worker after its notice", ran)
	}
}

// Replication must never leave a hot file exclusively on preemptible
// workers while a stable one is available (the PR 9 placement rule).
func TestReplicationIncludesStableWorker(t *testing.T) {
	registerTestLib(t)
	m, err := NewManager(
		WithPeerTransfers(true),
		WithLibrary("testlib", true),
		WithReplication(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	stable := map[string]bool{"s0": true}
	for _, spec := range []struct {
		name        string
		preemptible bool
	}{{"s0", false}, {"p0", true}, {"p1", true}} {
		w, err := NewWorker(m.Addr(),
			WithName(spec.name),
			WithCores(2),
			WithCacheDir(t.TempDir()),
			WithPreemptible(spec.preemptible),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := m.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte(fmt.Sprintf("v%d", i)), "out")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cn, _ := h.Output("out")
		// Replication transfers are queued at completion and settle fast
		// on loopback; wait for the replica set to reach 2 copies.
		deadline := time.Now().Add(3 * time.Second)
		for m.ReplicaCount(cn) < 2 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		m.mu.Lock()
		onStable := false
		for _, wid := range m.reps.Holders(string(cn)) {
			if w := m.workers[wid]; w != nil && w.alive && stable[w.name] {
				onStable = true
			}
		}
		m.mu.Unlock()
		if !onStable {
			t.Fatalf("output %d replicated exclusively onto preemptible workers", i)
		}
	}
}

// WaitForWorkers must track the live count through a scale-down, not the
// cumulative join count: after 4 joins and 2 departures, waiting for 3
// times out and waiting for 2 returns immediately.
func TestWaitForWorkersTracksScaleDown(t *testing.T) {
	m, ws := newCluster(t, 4, 1)
	ws[0].Stop()
	ws[1].Stop()
	deadline := time.Now().Add(5 * time.Second)
	for m.WorkerCount() != 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := m.WorkerCount(); n != 2 {
		t.Fatalf("WorkerCount = %d after stopping 2 of 4", n)
	}
	if err := m.WaitForWorkers(3, 150*time.Millisecond); err == nil {
		t.Fatal("WaitForWorkers(3) returned nil with only 2 live workers — counting joins, not liveness")
	}
	if err := m.WaitForWorkers(2, time.Second); err != nil {
		t.Fatalf("WaitForWorkers(2) = %v with 2 live workers", err)
	}
}
