package vine

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hepvine/internal/chaos"
	"hepvine/internal/journal"
	"hepvine/internal/obs"
)

// openJournal opens (or reopens) the run journal under dir.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jr, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// durableCluster builds a manager journaled to runDir plus one persistent
// worker whose cache lives at runDir/w0 — the restartable unit the warm
// tests stop, mutate, and bring back.
func durableCluster(t *testing.T, runDir string, jr *journal.Journal, extra ...Option) (*Manager, *Worker) {
	t.Helper()
	registerTestLib(t)
	mgrOpts := append([]Option{
		WithPeerTransfers(true),
		WithLibrary("testlib", true),
		WithJournal(jr),
	}, extra...)
	m, err := NewManager(mgrOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	w, err := NewWorker(m.Addr(),
		WithName("w0"),
		WithCores(2),
		WithCacheDir(filepath.Join(runDir, "w0")),
		WithPersistentCache(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, w
}

func TestWarmRestartSkipsCompletedTask(t *testing.T) {
	runDir := t.TempDir()
	jr := openJournal(t, runDir)
	m1, w1 := durableCluster(t, runDir, jr)
	h, err := m1.SubmitFunc(ModeTask, "testlib", "echo", []byte("warm"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m1.Stop()
	w1.Stop()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: same journal, same worker cache dir. The
	// identical resubmission must dedupe against the replayed record
	// without running anything.
	jr2 := openJournal(t, runDir)
	defer jr2.Close()
	m2, _ := durableCluster(t, runDir, jr2)
	h2, err := m2.SubmitFunc(ModeTask, "testlib", "echo", []byte("warm"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if !h2.WarmHit() {
		t.Fatal("resubmission of a journaled task was not a warm hit")
	}
	if h2.State() != TaskDone {
		t.Fatalf("warm handle state = %v, want TaskDone", h2.State())
	}
	if got := fetchOutput(t, m2, h2, "out"); string(got) != "echo:warm" {
		t.Fatalf("warm output = %q", got)
	}
	st := m2.Stats()
	if st.TasksDone != 0 {
		t.Fatalf("warm restart re-executed %d tasks", st.TasksDone)
	}
	if st.WarmHits != 1 {
		t.Fatalf("WarmHits = %d, want 1", st.WarmHits)
	}
	if st.JournalReplayed == 0 {
		t.Fatal("no journal records replayed on restart")
	}
}

func TestWarmRestartLostOutputRegenerates(t *testing.T) {
	runDir := t.TempDir()
	jr := openJournal(t, runDir)
	m1, w1 := durableCluster(t, runDir, jr)
	h, err := m1.SubmitFunc(ModeTask, "testlib", "echo", []byte("lost"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m1.Stop()
	w1.Stop()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Wipe the worker cache: the journal says the task completed, but no
	// replica of its output survives anywhere.
	if err := os.RemoveAll(filepath.Join(runDir, "w0")); err != nil {
		t.Fatal(err)
	}

	jr2 := openJournal(t, runDir)
	defer jr2.Close()
	m2, _ := durableCluster(t, runDir, jr2)
	h2, err := m2.SubmitFunc(ModeTask, "testlib", "echo", []byte("lost"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if h2.WarmHit() {
		t.Fatal("warm hit claimed for an output with no surviving replica")
	}
	// Fetching rides the lineage ladder: the replayed producer re-runs.
	if got := fetchOutput(t, m2, h2, "out"); string(got) != "echo:lost" {
		t.Fatalf("regenerated output = %q", got)
	}
	// The replayed producer was already counted done in its first life, so
	// the regeneration surfaces as a lineage rerun rather than a fresh
	// completion.
	if st := m2.Stats(); st.LineageReruns < 1 {
		t.Fatalf("lost output did not re-execute its producer: %+v", st)
	}
}

func TestWarmRestartCompactedJournal(t *testing.T) {
	runDir := t.TempDir()
	jr := openJournal(t, runDir)
	m1, w1 := durableCluster(t, runDir, jr)
	args := []string{"a", "b", "c", "d", "e"}
	for i, a := range args {
		h, err := m1.SubmitFunc(ModeTask, "testlib", "echo", []byte(a), "out")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Compact after the second and fourth tasks: the restart replays a
		// snapshot that replaced another, plus a one-task tail.
		if i%2 == 1 {
			if err := m1.CompactJournal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := jr.Stats().Snapshots; n != 2 {
		t.Fatalf("Snapshots = %d, want 2", n)
	}
	m1.Stop()
	w1.Stop()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot+tail replay must be equivalent to the full log: every
	// resubmission warm-hits.
	jr2 := openJournal(t, runDir)
	defer jr2.Close()
	m2, _ := durableCluster(t, runDir, jr2)
	for _, a := range args {
		h, err := m2.SubmitFunc(ModeTask, "testlib", "echo", []byte(a), "out")
		if err != nil {
			t.Fatal(err)
		}
		if !h.WarmHit() {
			t.Fatalf("task %q not warm after compaction", a)
		}
	}
	if st := m2.Stats(); st.TasksDone != 0 || st.WarmHits != len(args) {
		t.Fatalf("after compaction: TasksDone = %d, WarmHits = %d, want 0 and %d",
			st.TasksDone, st.WarmHits, len(args))
	}
}

// A task still running when a compaction fires must keep its definition:
// compaction deletes the segment that held it, and the task's completion
// lands in the tail. After a restart every resubmission, including the one
// that was in flight, is warm and nothing executes.
func TestCompactionKeepsInFlightDefinition(t *testing.T) {
	release := make(chan struct{})
	MustRegisterLibrary(&Library{
		Name: "holdlib",
		Funcs: map[string]Function{
			"hold": func(c *Call) error {
				<-release
				c.SetOutput("out", []byte("held"))
				return nil
			},
		},
	})
	runDir := t.TempDir()
	jr := openJournal(t, runDir)
	m1, w1 := durableCluster(t, runDir, jr, WithLibrary("holdlib", true))
	held, err := m1.SubmitFunc(ModeTask, "holdlib", "hold", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"a", "b"}
	for _, a := range args {
		h, err := m1.SubmitFunc(ModeTask, "testlib", "echo", []byte(a), "out")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Compact while held is still blocked in its function body.
	if err := m1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if held.State() == TaskDone {
		t.Fatal("held task finished before the compaction")
	}
	close(release)
	if err := held.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m1.Stop()
	w1.Stop()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2 := openJournal(t, runDir)
	defer jr2.Close()
	m2, _ := durableCluster(t, runDir, jr2, WithLibrary("holdlib", true))
	h, err := m2.SubmitFunc(ModeTask, "holdlib", "hold", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	if !h.WarmHit() {
		t.Fatal("task in flight at compaction was not warm after restart")
	}
	for _, a := range args {
		h, err := m2.SubmitFunc(ModeTask, "testlib", "echo", []byte(a), "out")
		if err != nil {
			t.Fatal(err)
		}
		if !h.WarmHit() {
			t.Fatalf("task %q not warm after restart", a)
		}
	}
	if st := m2.Stats(); st.TasksDone != 0 {
		t.Fatalf("restart re-executed %d tasks, want 0", st.TasksDone)
	}
}

// Automatic compaction is amortized. With a 32 KiB segment, 8k no-op tasks
// write snapshots totalling at most twice the journaled bytes plus one
// segment, each doubling of N adds at most two snapshots, and the snapshot
// plus tail left on disk still folds to every task the run completed. A
// snapshot every 512 completions would have written 16 snapshots here,
// each holding every task completed so far.
func TestJournalCompactionAmortized(t *testing.T) {
	registerTestLib(t)
	const (
		n      = 8192
		window = 64
		seg    = 32 << 10
	)
	jr, err := journal.Open(t.TempDir(), journal.Options{SegmentBytes: seg, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	m, err := NewManager(WithLibrary("testlib", true), WithJournal(jr))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	w, err := NewWorker(m.Addr(), WithCores(4), WithCacheDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	ids := make([]int, 0, n)
	var snaps []int64 // Snapshots after 1k, 2k, 4k and 8k tasks
	for len(ids) < n {
		hs := make([]*TaskHandle, window)
		for i := range hs {
			h, err := m.SubmitFunc(ModeFunctionCall, "testlib", "echo", []byte(strconv.Itoa(len(ids)+i)), "out")
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		for _, h := range hs {
			if err := h.Wait(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, h.ID)
		}
		if k := len(ids); k >= 1024 && k&(k-1) == 0 {
			// The lock round trip orders this after every completion handler
			// that may have started a compaction; then wait for it to land.
			m.mu.Lock()
			m.mu.Unlock()
			m.compactions.Wait()
			snaps = append(snaps, jr.Stats().Snapshots)
		}
	}

	st := jr.Stats()
	t.Logf("%d tasks: %d B appended, %d snapshots, %d B of snapshots, per doubling from 1k: %v",
		n, st.AppendedBytes, st.Snapshots, st.SnapshotBytes, snaps)
	if st.SnapshotBytes > 2*st.AppendedBytes+seg {
		t.Fatalf("snapshots wrote %d B for %d B appended, want at most 2x + one segment",
			st.SnapshotBytes, st.AppendedBytes)
	}
	if snaps[0] == 0 {
		t.Fatal("no automatic compaction in the first 1k tasks")
	}
	for i := 1; i < len(snaps); i++ {
		if d := snaps[i] - snaps[i-1]; d > 2 {
			t.Fatalf("doubling N added %d snapshots (%v), want at most 2", d, snaps)
		}
	}

	// Replay what compaction left on disk: every task's definition and
	// completion, with its output's size — the fold of the full log.
	m.Stop()
	rs := NewReplayState()
	if _, err := jr.Replay(rs.Apply); err != nil {
		t.Fatal(err)
	}
	if len(rs.defs) != n || len(rs.dones) != n {
		t.Fatalf("snapshot + tail folds to %d defs and %d dones, want %d of each",
			len(rs.defs), len(rs.dones), n)
	}
	for _, id := range ids {
		rec := m.tasks[id]
		def, done := rs.defs[id], rs.dones[id]
		out := rec.handle.outputs["out"]
		if def.DefHash != rec.defHash || def.Outputs["out"] != string(out) {
			t.Fatalf("task %d: replayed def %+v, live hash %s output %s", id, def, rec.defHash, out)
		}
		if done.OutputSizes[string(out)] != m.reps.Size(string(out)) {
			t.Fatalf("task %d: replayed output size %d, live %d", id, done.OutputSizes[string(out)], m.reps.Size(string(out)))
		}
	}
}

func TestPersistentCacheScrubDropsCorruptEntry(t *testing.T) {
	runDir := t.TempDir()
	registerTestLib(t)
	m1, err := NewManager(WithLibrary("testlib", true))
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Stop()
	w1, err := NewWorker(m1.Addr(),
		WithName("w0"), WithCores(1),
		WithCacheDir(filepath.Join(runDir, "w0")),
		WithPersistentCache(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Stop()
	if err := m1.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h, err := m1.SubmitFunc(ModeTask, "testlib", "echo", []byte("scrubme"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	names := w1.CacheNames()
	if len(names) == 0 {
		t.Fatal("no cached entries after a completed task")
	}
	m1.Stop()
	w1.Stop()

	// Flip one byte of one cached entry on disk; the rest stay intact.
	victim := names[0]
	path := filepath.Join(runDir, "w0", strings.ReplaceAll(string(victim), ":", "_"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	m2, err := NewManager(WithLibrary("testlib", true))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	w2, err := NewWorker(m2.Addr(),
		WithName("w0"), WithCores(1),
		WithCacheDir(filepath.Join(runDir, "w0")),
		WithPersistentCache(true),
		WithRecorder(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Stop()
	survivors := w2.CacheNames()
	for _, n := range survivors {
		if n == victim {
			t.Fatalf("corrupt entry %s survived the startup scrub", victim)
		}
	}
	if len(survivors) != len(names)-1 {
		t.Fatalf("scrub kept %d of %d entries, want %d", len(survivors), len(names), len(names)-1)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still on disk (err = %v)", err)
	}
	corrupt := 0
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvFileCorrupt {
			corrupt++
		}
	}
	if corrupt == 0 {
		t.Fatal("scrub dropped an entry without an EvFileCorrupt event")
	}
}

// TestWorkerReconnectRestoresReplicas is the regression test for the
// reconnect-with-empty-replica-view bug: when a worker's control
// connection dies and it redials under the same name, the manager must
// dedupe the stale registration and re-learn the worker's replicas from
// its inventory, so files cached only there stay fetchable without a
// lineage rerun.
func TestWorkerReconnectRestoresReplicas(t *testing.T) {
	registerTestLib(t)
	// Black-hole the worker's control connection for 200ms — long enough
	// for the manager's 150ms heartbeat timeout to declare it lost — then
	// let the redial through.
	plan := chaos.NewPlan(3).Add(
		chaos.Fault{Kind: chaos.KindPartition, Target: "w0/control", At: time.Millisecond, Dur: 200 * time.Millisecond},
	)
	defer plan.Stop()
	m, err := NewManager(
		WithLibrary("testlib", true),
		WithHeartbeat(20*time.Millisecond, 150*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	w, err := NewWorker(m.Addr(),
		WithName("w0"), WithCores(1),
		WithCacheDir(t.TempDir()),
		WithFaultInjector(plan),
		WithHeartbeat(20*time.Millisecond, 400*time.Millisecond),
		WithReconnect(40, 25*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("survivor"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever the control connection; the worker must redial and re-register
	// with its cache inventory.
	plan.Start()
	deadline := time.Now().Add(5 * time.Second)
	for w.Reconnects() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Reconnects() == 0 {
		t.Fatal("worker never reconnected after its control connection died")
	}
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The output produced before the cut lives only in w0's cache. If the
	// manager re-learned the replica from the reconnect inventory, this
	// fetch is a plain transfer; if it came back with an empty replica
	// view, the fetch would force a lineage rerun (or fail outright).
	if got := fetchOutput(t, m, h, "out"); string(got) != "echo:survivor" {
		t.Fatalf("post-reconnect fetch = %q", got)
	}
	st := m.Stats()
	if st.LineageReruns != 0 {
		t.Fatalf("fetch after reconnect forced %d lineage reruns, want 0", st.LineageReruns)
	}
	// A fresh task must also land on the reconnected worker.
	h2, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("after"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
