package vine

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pastRacyWindow judges every file's timestamps from an hour on, so a file
// written by the test counts as settled without waiting for it to age.
func pastRacyWindow(t *testing.T) {
	t.Helper()
	sharedNow = func() time.Time { return time.Now().Add(time.Hour) }
	t.Cleanup(func() { sharedNow = time.Now })
}

// writeShared writes a shared-storage file with an mtime an hour back, so
// a later rewrite of the same size in the same clock tick still changes
// its identity.
func writeShared(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// rewrite overwrites path in place with data of the same size.
func rewrite(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// gateEntered and gateRelease let a test act while the "gated" function
// is inside its call; calls counts calls of "counted".
var (
	gateEntered = make(chan struct{})
	gateRelease = make(chan struct{})
	calls       atomic.Int64
)

func registerGateLib() {
	MustRegisterLibrary(&Library{
		Name: "gatelib",
		Funcs: map[string]Function{
			"gated": func(c *Call) error {
				gateEntered <- struct{}{}
				<-gateRelease
				in, err := c.Input("in")
				if err != nil {
					return err
				}
				c.SetOutput("out", in)
				return nil
			},
			"counted": func(c *Call) error {
				calls.Add(1)
				c.SetOutput("out", []byte("ran"))
				return nil
			},
		},
	})
}

func submitUpper(t *testing.T, m *Manager, cn CacheName) *TaskHandle {
	t.Helper()
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// A settled shared file is named by its identity and read in place: no
// transfer reaches the worker, and the call sees the file's bytes.
func TestSharedFileReadInPlace(t *testing.T) {
	pastRacyWindow(t)
	m, ws := newCluster(t, 1, 1)
	path := filepath.Join(t.TempDir(), "input.txt")
	writeShared(t, path, []byte("shared bytes"))
	cn, err := m.DeclareSharedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cn), "shared:") || !cn.Valid() {
		t.Fatalf("declared as %q, want a valid shared: name", cn)
	}
	if again, _ := m.DeclareSharedFile(path); again != cn {
		t.Fatalf("second declaration named %s, first %s", again, cn)
	}
	h := submitUpper(t, m, cn)
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h, "out"); string(got) != "SHARED BYTES" {
		t.Fatalf("output %q", got)
	}
	if n := ws[0].Stats().TransfersIn; n != 0 {
		t.Fatalf("worker received %d transfers, want 0", n)
	}
	if st := m.Stats(); st.ManagerTransfers != 0 {
		t.Fatalf("%d manager transfers, want 0", st.ManagerTransfers)
	}
}

// A file changed within the racy window of the declaration cannot be
// named by its stat, so it is declared by content. Paths must be
// absolute and clean.
func TestSharedFileRacyGetsBlobName(t *testing.T) {
	m, _ := newCluster(t, 0, 1)
	path := filepath.Join(t.TempDir(), "fresh.txt")
	if err := os.WriteFile(path, []byte("just written"), 0o644); err != nil {
		t.Fatal(err)
	}
	cn, err := m.DeclareSharedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _, _ := fileBlobName(path); cn != want {
		t.Fatalf("racy file declared as %s, want its content name %s", cn, want)
	}
	for _, bad := range []string{"fresh.txt", filepath.Dir(path) + "/./fresh.txt"} {
		if _, err := m.DeclareSharedFile(bad); err == nil {
			t.Fatalf("path %q accepted", bad)
		}
	}
	if _, err := m.DeclareSharedFile(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

// A same-size rewrite between declaration and run changes the file's
// identity: the worker does not call the function, the manager confirms
// the change, and the task fails with ErrSharedFileChanged, as does a task
// submitted on the old name afterwards.
func TestSharedFileRewrittenBeforeRun(t *testing.T) {
	pastRacyWindow(t)
	registerGateLib()
	m, ws := newCluster(t, 1, 1)
	path := filepath.Join(t.TempDir(), "input.txt")
	writeShared(t, path, []byte("file content"))
	cn, err := m.DeclareSharedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rewrite(t, path, []byte("file CONTENT"))
	before := calls.Load()
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "gatelib", Func: "counted",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); !errors.Is(err, ErrSharedFileChanged) {
		t.Fatalf("task on a rewritten shared file: err %v, want ErrSharedFileChanged", err)
	}
	if n := calls.Load() - before; n != 0 {
		t.Fatalf("function called %d times on a changed file", n)
	}
	if n := ws[0].Stats().TasksRun; n != 0 {
		t.Fatalf("worker reported %d results on a changed file", n)
	}
	late, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "concat",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Wait(10 * time.Second); !errors.Is(err, ErrSharedFileChanged) {
		t.Fatalf("task submitted on the old name: err %v, want ErrSharedFileChanged", err)
	}
}

// A rewrite while the function is inside its call is caught by the check
// after the call: the result is discarded, never cached or reported under
// the old name, and the task fails with ErrSharedFileChanged.
func TestSharedFileRewrittenDuringCall(t *testing.T) {
	pastRacyWindow(t)
	registerGateLib()
	m, ws := newCluster(t, 1, 1)
	path := filepath.Join(t.TempDir(), "input.txt")
	writeShared(t, path, []byte("before call"))
	cn, err := m.DeclareSharedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "gatelib", Func: "gated",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gateEntered
	rewrite(t, path, []byte("DURING CALL"))
	gateRelease <- struct{}{}
	if err := h.Wait(10 * time.Second); !errors.Is(err, ErrSharedFileChanged) {
		t.Fatalf("task whose input changed mid-call: err %v, want ErrSharedFileChanged", err)
	}
	out, _ := h.Output("out")
	if n := m.ReplicaCount(out); n != 0 {
		t.Fatalf("output of the discarded call has %d replicas", n)
	}
	for _, c := range ws[0].CacheNames() {
		if c == out {
			t.Fatal("worker cached the discarded call's output")
		}
	}
	if n := ws[0].Stats().TasksRun; n != 0 {
		t.Fatalf("worker counted %d completed tasks", n)
	}
}

// A worker that cannot see the path reports the input stale; the manager
// finds its own copy intact, re-queues the task without spending a retry,
// and from then on stages the file to that worker by transfer.
func TestSharedFileNoMountFallsBackToTransfer(t *testing.T) {
	pastRacyWindow(t)
	m, ws := newCluster(t, 1, 1)
	ws[0].mu.Lock()
	ws[0].stat = func(string) (os.FileInfo, error) { return nil, fs.ErrNotExist }
	ws[0].mu.Unlock()
	path := filepath.Join(t.TempDir(), "input.txt")
	writeShared(t, path, []byte("far away"))
	cn, err := m.DeclareSharedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := submitUpper(t, m, cn)
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h, "out"); string(got) != "FAR AWAY" {
		t.Fatalf("output %q", got)
	}
	if n := h.Retries(); n != 0 {
		t.Fatalf("Retries = %d, want 0", n)
	}
	// A second reader goes straight to the cached copy.
	h2, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "concat",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h2, "out"); !bytes.Equal(got, []byte("far away")) {
		t.Fatalf("second output %q", got)
	}
	if n := ws[0].Stats().TransfersIn; n != 1 {
		t.Fatalf("worker received %d transfers, want 1", n)
	}
	if st := m.Stats(); st.ManagerTransfers != 1 || st.Retries != 0 {
		t.Fatalf("%d manager transfers and %d retries, want 1 and 0", st.ManagerTransfers, st.Retries)
	}
}

// Journal replay checks a shared declaration by stat: an unchanged file
// keeps its name and its completed task warm-hits; a rewritten one is
// dropped, and a task on its old name fails with ErrSharedFileChanged. A
// file first declared inside the racy window (so by content) keeps that
// blob: name after the restart, and its task warm-hits too.
func TestSharedFileJournalReplay(t *testing.T) {
	runDir := t.TempDir()
	dataDir := t.TempDir()
	kept, changed, racyPath := filepath.Join(dataDir, "kept"), filepath.Join(dataDir, "changed"), filepath.Join(dataDir, "racy")
	writeShared(t, kept, []byte("kept content"))
	writeShared(t, changed, []byte("old content"))
	if err := os.WriteFile(racyPath, []byte("racy content"), 0o644); err != nil {
		t.Fatal(err)
	}

	jr := openJournal(t, runDir)
	m, w := durableCluster(t, runDir, jr)
	racyCN, err := m.DeclareSharedFile(racyPath)
	if err != nil || !strings.HasPrefix(string(racyCN), "blob:") {
		t.Fatalf("racy declaration: %s, %v", racyCN, err)
	}
	pastRacyWindow(t)
	names := map[string]CacheName{}
	for _, p := range []string{kept, changed} {
		if names[p], err = m.DeclareSharedFile(p); err != nil {
			t.Fatal(err)
		}
	}
	names[racyPath] = racyCN
	for _, p := range []string{kept, changed, racyPath} {
		if err := submitUpper(t, m, names[p]).Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	m.Stop()
	w.Stop()
	jr.Close()

	rewrite(t, changed, []byte("new content"))
	jr2 := openJournal(t, runDir)
	defer jr2.Close()
	m2, _ := durableCluster(t, runDir, jr2)
	for _, p := range []string{kept, racyPath} {
		cn, err := m2.DeclareSharedFile(p)
		if err != nil || cn != names[p] {
			t.Fatalf("%s re-declared as %s (%v), journal named it %s", p, cn, err, names[p])
		}
		h := submitUpper(t, m2, cn)
		if !h.WarmHit() {
			t.Fatalf("task on unchanged %s did not warm-hit", p)
		}
	}
	cn, err := m2.DeclareSharedFile(changed)
	if err != nil || cn == names[changed] || !strings.HasPrefix(string(cn), "shared:") {
		t.Fatalf("rewritten file re-declared as %s (%v), old name %s", cn, err, names[changed])
	}
	h, err := m2.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "concat",
		Inputs:  []FileRef{{Name: "in", CacheName: names[changed]}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); !errors.Is(err, ErrSharedFileChanged) {
		t.Fatalf("task on the dropped name: err %v, want ErrSharedFileChanged", err)
	}
	if err := submitUpper(t, m2, cn).Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
