package daskvine

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/hist"
	"hepvine/internal/journal"
	"hepvine/internal/obs"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

// dvProc is the MET analysis used as the integration workload.
type dvProc struct{}

func (dvProc) Name() string      { return "dv-test" }
func (dvProc) Columns() []string { return []string{"MET_pt", "nJet", "Jet_pt"} }
func (dvProc) Process(ev *coffea.NanoEvents) (*coffea.HistSet, error) {
	met, err := ev.Flat("MET_pt")
	if err != nil {
		return nil, err
	}
	jets, err := ev.Jagged("Jet_pt")
	if err != nil {
		return nil, err
	}
	hs := coffea.NewHistSet()
	hm := hist.New(hist.Reg(100, 0, 200, "met"))
	hm.FillN(met)
	hs.H["met"] = hm
	hj := hist.New(hist.Reg(50, 0, 500, "jet_pt"))
	hj.FillN(jets.Values)
	hs.H["jet_pt"] = hj
	return hs, nil
}

var setupOnce sync.Once

func setup(t *testing.T) []coffea.Chunk {
	t.Helper()
	return dataset(t, "dvtest", 100)
}

// dataset writes a seeded 3×400-event dataset and cuts it into chunks of
// chunkEvents events.
func dataset(t *testing.T, name string, chunkEvents int64) []coffea.Chunk {
	t.Helper()
	setupOnce.Do(func() {
		coffea.Register(dvProc{})
		vine.MustRegisterLibrary(NewLibrary(0))
	})
	paths, err := rootio.WriteDataset(t.TempDir(), rootio.DatasetSpec{
		Name: name, Files: 3, EventsPerFile: 400, BasketSize: 100,
		Gen: rootio.GenOptions{Seed: 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]coffea.FileInfo, len(paths))
	for i, p := range paths {
		infos[i] = coffea.FileInfo{Path: p, NEvents: 400}
	}
	chunks, err := coffea.Partition(name, infos, chunkEvents)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

func cluster(t *testing.T, workers, cores int, opts ...vine.Option) *vine.Manager {
	t.Helper()
	mgrOpts := append([]vine.Option{
		vine.WithPeerTransfers(true),
		vine.WithLibrary(LibraryName, true),
	}, opts...)
	m, err := vine.NewManager(mgrOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	for i := 0; i < workers; i++ {
		w, err := vine.NewWorker(m.Addr(),
			vine.WithName(fmt.Sprintf("w%d", i)),
			vine.WithCores(cores),
			vine.WithCacheDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := m.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m
}

func assertMatchesLocal(t *testing.T, got *coffea.HistSet, chunks []coffea.Chunk) {
	t.Helper()
	want, err := coffea.RunLocal(dvProc{}, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != len(want.Names()) {
		t.Fatalf("names %v vs %v", got.Names(), want.Names())
	}
	for _, n := range want.Names() {
		for i := range want.H[n].Counts {
			if math.Abs(want.H[n].Counts[i]-got.H[n].Counts[i]) > 1e-9 {
				t.Fatalf("%s bin %d: want %v got %v", n, i, want.H[n].Counts[i], got.H[n].Counts[i])
			}
		}
	}
}

func TestRunFunctionCallsBinaryTree(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 3, 2)
	got, err := Run(m, g, root, Options{Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLocal(t, got, chunks)
	st := m.Stats()
	if st.TasksDone != g.Len() {
		t.Fatalf("done %d of %d", st.TasksDone, g.Len())
	}
}

func TestRunStandardTasksSingleShot(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 0})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 2, 2)
	got, err := Run(m, g, root, Options{Mode: vine.ModeTask, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLocal(t, got, chunks)
}

func TestRunWorkQueueStyle(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 2, 2, vine.WithPeerTransfers(false), vine.WithReturnOutputs(true))
	got, err := Run(m, g, root, Options{Mode: vine.ModeTask, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLocal(t, got, chunks)
}

func TestRunSurvivesWorkerKill(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vine.NewManager(
		vine.WithPeerTransfers(true),
		vine.WithLibrary(LibraryName, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	var victim *vine.Worker
	for i := 0; i < 3; i++ {
		w, err := vine.NewWorker(m.Addr(),
			vine.WithName(fmt.Sprintf("w%d", i)),
			vine.WithCores(2),
			vine.WithCacheDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			victim = w
		} else {
			t.Cleanup(w.Stop)
		}
	}
	if err := m.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill one worker once a few tasks have completed.
	var done32 int32
	killed := make(chan struct{})
	var once sync.Once
	opts := Options{
		Mode:    vine.ModeFunctionCall,
		Timeout: 120 * time.Second,
		OnTaskDone: func(k dag.Key, h *vine.TaskHandle) {
			if atomic.AddInt32(&done32, 1) == 5 {
				once.Do(func() {
					victim.Stop()
					close(killed)
				})
			}
		},
	}
	got, err := Run(m, g, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Log("worker was never killed (run finished too fast); rerunning assertion anyway")
	}
	assertMatchesLocal(t, got, chunks)
}

// Every node's OnTaskDone fires exactly once, and before Run returns —
// including the nodes whose completion races the root's.
func TestRunDeliversEveryCallback(t *testing.T) {
	chunks := dataset(t, "cbtest", 40)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() < 50 {
		t.Fatalf("graph has %d nodes, want >= 50", g.Len())
	}
	for run := 0; run < 20; run++ {
		m := cluster(t, 2, 2)
		var mu sync.Mutex
		fired := map[dag.Key]int{}
		var returned, late atomic.Bool
		_, err := Run(m, g, root, Options{
			Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second,
			OnTaskDone: func(k dag.Key, h *vine.TaskHandle) {
				time.Sleep(time.Millisecond) // a callback doing real work must still finish first
				if returned.Load() {
					late.Store(true)
				}
				mu.Lock()
				fired[k]++
				mu.Unlock()
			},
		})
		returned.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, k := range g.Topo() {
			if fired[k] != 1 {
				t.Fatalf("run %d: node %s callback fired %d times before Run returned", run, k, fired[k])
			}
		}
		mu.Unlock()
		if late.Load() {
			t.Fatalf("run %d: a callback fired after Run returned", run)
		}
		m.Stop()
	}
}

func TestRunMultiDataset(t *testing.T) {
	chunksA := setup(t)
	chunksB := setup(t)
	datasets := map[string][]coffea.Chunk{"a": chunksA, "b": chunksB}
	g, root, err := coffea.BuildMultiDatasetGraph("dv-test", datasets, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 2, 2)
	got, err := Run(m, g, root, Options{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]coffea.Chunk(nil), chunksA...), chunksB...)
	assertMatchesLocal(t, got, all)
}

func TestRunValidation(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks[:2], coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 1, 1)
	if _, err := Run(m, g, "missing-root", Options{}); err == nil {
		t.Fatal("bogus root accepted")
	}
	unfinalized := dag.NewGraph()
	unfinalized.MustAdd(&dag.Task{Key: "x"})
	if _, err := Run(m, unfinalized, "x", Options{}); err == nil {
		t.Fatal("unfinalized graph accepted")
	}
	_ = root
}

// TestRunMissingFileFails: when one dataset file is missing, Run fails
// with that path's error.
func TestRunMissingFileFails(t *testing.T) {
	chunks := setup(t)
	missing := filepath.Join(t.TempDir(), "missing.root")
	mixed := append([]coffea.Chunk(nil), chunks[:4]...)
	mixed[1].Path = missing
	g, root, err := coffea.BuildGraph("dv-test", mixed, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster(t, 0, 1)
	_, err = Run(m, g, root, Options{Timeout: 10 * time.Second})
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), missing) {
		t.Fatalf("Run error = %v, want the stat error for %s", err, missing)
	}
}

// settled declares paths as shared files until each gets a shared: name,
// that is, until every file is past the racy window of its write.
func settled(t *testing.T, m *vine.Manager, paths []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range paths {
		for {
			cn, err := m.DeclareSharedFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(string(cn), "shared:") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still declared as %s", p, cn)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// A dv3-shaped run (the DV3 processor over a seeded dataset, 4-way tree
// reduce, two single-core workers with peer transfers) reads every dataset
// file in place: no dataset byte crosses a socket, and the result matches
// the serial run bin for bin.
func TestRunReadsDatasetInPlace(t *testing.T) {
	setup(t)
	apps.RegisterProcessors()
	paths, err := rootio.WriteDataset(t.TempDir(), rootio.DatasetSpec{
		Name: "JetHT", Files: 3, EventsPerFile: 2000,
		Gen: rootio.GenOptions{Seed: 3, MeanJets: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]coffea.FileInfo, len(paths))
	for i, p := range paths {
		infos[i] = coffea.FileInfo{Path: p, NEvents: 2000}
	}
	chunks, err := coffea.Partition("JetHT", infos, 500)
	if err != nil {
		t.Fatal(err)
	}
	g, root, err := coffea.BuildGraph("dv3", chunks, coffea.GraphOptions{FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	m := cluster(t, 2, 1, vine.WithRecorder(rec))
	settled(t, m, paths)
	got, err := Run(m, g, root, Options{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coffea.RunLocal(apps.DV3Processor{}, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range want.Names() {
		w, h := want.H[n], got.H[n]
		if h == nil || len(h.Counts) != len(w.Counts) {
			t.Fatalf("histogram %s missing or reshaped", n)
		}
		for i := range w.Counts {
			if w.Counts[i] != h.Counts[i] {
				t.Fatalf("%s bin %d: %g, serial %g", n, i, h.Counts[i], w.Counts[i])
			}
		}
	}
	if st := m.Stats(); st.ManagerTransfers != 0 || st.ManagerBytes != 0 {
		t.Fatalf("%d manager transfers of %d bytes, want none", st.ManagerTransfers, st.ManagerBytes)
	}
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvTransferStart && !strings.HasPrefix(ev.Detail, "out:") {
			t.Fatalf("dataset file moved: %+v", ev)
		}
	}
}

// TestRunWarmResubmission proves idempotent graph resubmission end to
// end: the same graph run twice against one journal — second incarnation
// of the manager, fresh workers on the same persistent cache dirs —
// completes without executing a single task, every node surfacing as an
// EvWarmHit in the graph-level trace.
func TestRunWarmResubmission(t *testing.T) {
	chunks := setup(t)
	g, root, err := coffea.BuildGraph("dv-test", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	runOnce := func() (*coffea.HistSet, vine.ManagerStats, *obs.Recorder) {
		jr, err := journal.Open(filepath.Join(runDir, "journal"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer jr.Close()
		rec := obs.NewRecorder()
		m, err := vine.NewManager(
			vine.WithPeerTransfers(true),
			vine.WithLibrary(LibraryName, true),
			vine.WithJournal(jr),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		for i := 0; i < 2; i++ {
			w, err := vine.NewWorker(m.Addr(),
				vine.WithName(fmt.Sprintf("w%d", i)),
				vine.WithCores(2),
				vine.WithCacheDir(filepath.Join(runDir, fmt.Sprintf("worker-%d", i))),
				vine.WithPersistentCache(true),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
		}
		if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		res, err := Run(m, g, root, Options{
			Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Stats(), rec
	}

	cold, cst, _ := runOnce()
	if cst.TasksDone != g.Len() {
		t.Fatalf("cold run done %d of %d", cst.TasksDone, g.Len())
	}
	warm, wst, rec := runOnce()
	assertMatchesLocal(t, warm, chunks)
	for _, n := range cold.Names() {
		for i := range cold.H[n].Counts {
			if cold.H[n].Counts[i] != warm.H[n].Counts[i] {
				t.Fatalf("%s bin %d diverged across warm restart", n, i)
			}
		}
	}
	if wst.TasksDone != 0 {
		t.Fatalf("warm resubmission executed %d tasks, want 0", wst.TasksDone)
	}
	if wst.WarmHits != g.Len() {
		t.Fatalf("WarmHits = %d, want %d", wst.WarmHits, g.Len())
	}
	warmEvents := 0
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvWarmHit {
			warmEvents++
		}
	}
	if warmEvents != g.Len() {
		t.Fatalf("EvWarmHit events = %d, want one per node (%d)", warmEvents, g.Len())
	}
}
