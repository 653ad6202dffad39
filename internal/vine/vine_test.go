package vine

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ---- unit: cachenames ----

func TestBlobNameDeterministic(t *testing.T) {
	a := blobName([]byte("hello"))
	b := blobName([]byte("hello"))
	c := blobName([]byte("world"))
	if a != b {
		t.Fatal("same content different names")
	}
	if a == c {
		t.Fatal("different content same name")
	}
	if !a.Valid() {
		t.Fatalf("invalid blob name %s", a)
	}
}

func TestTaskDefHashSensitivity(t *testing.T) {
	base := taskDefHash("task", "lib", "fn", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}})
	same := taskDefHash("task", "lib", "fn", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}})
	if base != same {
		t.Fatal("hash not deterministic")
	}
	variants := []string{
		taskDefHash("function-call", "lib", "fn", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}}),
		taskDefHash("task", "lib2", "fn", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}}),
		taskDefHash("task", "lib", "fn2", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}}),
		taskDefHash("task", "lib", "fn", []byte("other"), []FileRef{{Name: "a", CacheName: blobName([]byte("x"))}}),
		taskDefHash("task", "lib", "fn", []byte("args"), []FileRef{{Name: "b", CacheName: blobName([]byte("x"))}}),
		taskDefHash("task", "lib", "fn", []byte("args"), []FileRef{{Name: "a", CacheName: blobName([]byte("y"))}}),
		taskDefHash("task", "lib", "fn", []byte("args"), nil),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d collided with base", i)
		}
	}
}

func TestOutputNameValid(t *testing.T) {
	h := taskDefHash("task", "l", "f", nil, nil)
	on := outputName(h, "hist")
	if !on.Valid() {
		t.Fatalf("output name invalid: %s", on)
	}
	if CacheName("bogus").Valid() || CacheName("blob:short").Valid() || CacheName("out:xx:y").Valid() {
		t.Fatal("invalid names accepted")
	}
}

func TestCachePathSafe(t *testing.T) {
	p := cachePathSafe(blobName([]byte("x")))
	if strings.ContainsAny(p, ":/") {
		t.Fatalf("unsafe path %q", p)
	}
}

// ---- unit: protocol framing ----

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &message{Type: msgDispatch, Dispatch: &dispatchMsg{
		TaskID: 7, Mode: "task", Library: "l", Func: "f", Args: []byte("abc"),
		Inputs: []fileRefWire{{Name: "x", CacheName: "blob:123"}},
	}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgDispatch || out.Dispatch.TaskID != 7 || string(out.Dispatch.Args) != "abc" {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// ---- unit: libraries ----

func TestLibraryValidation(t *testing.T) {
	if err := RegisterLibrary(&Library{Name: "", Funcs: map[string]Function{"f": func(*Call) error { return nil }}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterLibrary(&Library{Name: "x"}); err == nil {
		t.Fatal("no functions accepted")
	}
	if err := RegisterLibrary(&Library{Name: "x", Funcs: map[string]Function{"": nil}}); err == nil {
		t.Fatal("nil function accepted")
	}
}

func TestLibraryInstanceHoisting(t *testing.T) {
	var setups int32
	lib := &Library{
		Name:  "hoist-test",
		Setup: func() (any, error) { atomic.AddInt32(&setups, 1); return "state", nil },
		Funcs: map[string]Function{"f": func(*Call) error { return nil }},
	}
	hoisted := newLibraryInstance(lib, true)
	for i := 0; i < 5; i++ {
		st, _, err := hoisted.stateFor()
		if err != nil || st != "state" {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt32(&setups); n != 1 {
		t.Fatalf("hoisted setup ran %d times", n)
	}
	atomic.StoreInt32(&setups, 0)
	raw := newLibraryInstance(lib, false)
	for i := 0; i < 5; i++ {
		raw.stateFor()
	}
	if n := atomic.LoadInt32(&setups); n != 5 {
		t.Fatalf("non-hoisted setup ran %d times", n)
	}
	if raw.SetupCount() != 5 {
		t.Fatalf("SetupCount = %d", raw.SetupCount())
	}
}

// ---- integration helpers ----

// testLib is a library of small functions used across integration tests.
func registerTestLib(t *testing.T) {
	t.Helper()
	MustRegisterLibrary(&Library{
		Name:  "testlib",
		Setup: func() (any, error) { return map[string]string{"env": "ok"}, nil },
		Funcs: map[string]Function{
			"echo": func(c *Call) error {
				c.SetOutput("out", append([]byte("echo:"), c.Args...))
				return nil
			},
			"upper": func(c *Call) error {
				in, err := c.Input("in")
				if err != nil {
					return err
				}
				c.SetOutput("out", bytes.ToUpper(in))
				return nil
			},
			"concat": func(c *Call) error {
				var buf bytes.Buffer
				for _, name := range c.InputNames() {
					b, err := c.Input(name)
					if err != nil {
						return err
					}
					buf.Write(b)
				}
				c.SetOutput("out", buf.Bytes())
				return nil
			},
			"fail": func(c *Call) error {
				return fmt.Errorf("deliberate failure")
			},
			"bigout": func(c *Call) error {
				c.SetOutput("out", make([]byte, 1<<20))
				return nil
			},
			"sleep50": func(c *Call) error {
				time.Sleep(50 * time.Millisecond)
				c.SetOutput("out", []byte("slept"))
				return nil
			},
			"needstate": func(c *Call) error {
				st, ok := c.State().(map[string]string)
				if !ok || st["env"] != "ok" {
					return fmt.Errorf("state missing")
				}
				c.SetOutput("out", []byte("stateful"))
				return nil
			},
		},
	})
}

// newCluster builds a loopback manager plus workers. Defaults: peer
// transfers on, testlib installed hoisted. Extra options are applied to
// both the manager and the workers (and thus can override defaults or
// attach a shared recorder).
// waitUntil returns once cond holds, re-checking it on every change the
// manager broadcasts, or when timeout elapses; callers check the outcome.
func waitUntil(m *Manager, timeout time.Duration, cond func() bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		m.mu.Lock()
		ch := m.change
		m.mu.Unlock()
		if cond() {
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			return
		}
	}
}

func newCluster(t *testing.T, workers int, coresEach int, opts ...Option) (*Manager, []*Worker) {
	t.Helper()
	registerTestLib(t)
	mgrOpts := append([]Option{
		WithPeerTransfers(true),
		WithLibrary("testlib", true),
	}, opts...)
	m, err := NewManager(mgrOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	ws := make([]*Worker, workers)
	for i := range ws {
		wOpts := append([]Option{
			WithName(fmt.Sprintf("w%d", i)),
			WithCores(coresEach),
			WithCacheDir(t.TempDir()),
		}, opts...)
		w, err := NewWorker(m.Addr(), wOpts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		ws[i] = w
	}
	if err := m.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, ws
}

func fetchOutput(t *testing.T, m *Manager, h *TaskHandle, name string) []byte {
	t.Helper()
	cn, ok := h.Output(name)
	if !ok {
		t.Fatalf("no output %q", name)
	}
	data, err := m.FetchBytes(cn)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ---- integration tests ----

func TestSimpleTask(t *testing.T) {
	m, _ := newCluster(t, 1, 2)
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("hi"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h, "out"); string(got) != "echo:hi" {
		t.Fatalf("got %q", got)
	}
	if h.State() != TaskDone {
		t.Fatalf("state = %v", h.State())
	}
	if m.Stats().TasksDone != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestFunctionCallMode(t *testing.T) {
	m, ws := newCluster(t, 1, 4)
	var handles []*TaskHandle
	for i := 0; i < 10; i++ {
		h, err := m.SubmitFunc(ModeFunctionCall, "testlib", "needstate", nil, "out")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		// Distinct args so outputs differ per task.
		_ = i
	}
	for _, h := range handles {
		if err := h.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Hoisted: library setup ran exactly once on the worker.
	if n := ws[0].LibrarySetupCount("testlib"); n != 1 {
		t.Fatalf("hoisted setups = %d", n)
	}
	if ws[0].Stats().FunctionCalls == 0 {
		t.Fatal("no function calls recorded")
	}
}

func TestIdenticalTasksShareOutputs(t *testing.T) {
	// Two submissions with identical definitions produce the same output
	// cachename — content addressing at the task level.
	m, _ := newCluster(t, 1, 2)
	h1, _ := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("same"), "out")
	h2, _ := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("same"), "out")
	c1, _ := h1.Output("out")
	c2, _ := h2.Output("out")
	if c1 != c2 {
		t.Fatalf("identical tasks got different outputs: %s vs %s", c1, c2)
	}
	if err := h1.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTaskChainThroughCache(t *testing.T) {
	m, _ := newCluster(t, 2, 2)
	src := m.DeclareBuffer([]byte("hello vine"))
	h1, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: src}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out1, _ := h1.Output("out")
	h2, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: out1}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h2, "out"); string(got) != "HELLO VINE" {
		t.Fatalf("got %q", got)
	}
}

func TestDeclareFileStaging(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	dir := t.TempDir()
	path := dir + "/input.txt"
	if err := writeFileHelper(path, []byte("file content")); err != nil {
		t.Fatal(err)
	}
	cn, err := m.DeclareFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fetchOutput(t, m, h, "out"); string(got) != "FILE CONTENT" {
		t.Fatalf("got %q", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	if _, err := m.Submit(Task{Library: "", Func: "f"}); err == nil {
		t.Fatal("empty library accepted")
	}
	if _, err := m.Submit(Task{Library: "nolib", Func: "f"}); err == nil {
		t.Fatal("unregistered library accepted")
	}
	if _, err := m.Submit(Task{Mode: "bogus", Library: "testlib", Func: "echo"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if _, err := m.Submit(Task{
		Library: "testlib", Func: "echo",
		Inputs: []FileRef{{Name: "x", CacheName: CacheName("blob:" + strings.Repeat("0", 64))}},
	}); err == nil {
		t.Fatal("undeclared input accepted")
	}
	if _, err := m.Submit(Task{
		Library: "testlib", Func: "echo",
		Inputs: []FileRef{{Name: "x", CacheName: "garbage"}},
	}); err == nil {
		t.Fatal("invalid cachename accepted")
	}
}

func TestFailingTaskReportsError(t *testing.T) {
	m, _ := newCluster(t, 1, 1, WithMaxRetries(2))
	h, err := m.SubmitFunc(ModeTask, "testlib", "fail", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	err = h.Wait(10 * time.Second)
	if err == nil {
		t.Fatal("failing task reported success")
	}
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("unexpected error: %v", err)
	}
	if h.State() != TaskFailed {
		t.Fatalf("state = %v", h.State())
	}
}

func TestPeerTransfer(t *testing.T) {
	m, ws := newCluster(t, 2, 1)
	// Producer lands on one worker.
	p, err := m.SubmitFunc(ModeTask, "testlib", "bigout", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := p.Output("out")
	// Two consumers, one core each worker → one consumer must run on the
	// other worker and stage the input from its peer.
	mk := func(tag string) *TaskHandle {
		h, err := m.Submit(Task{
			Mode: ModeTask, Library: "testlib", Func: "concat", Args: []byte(tag),
			Inputs:  []FileRef{{Name: "in", CacheName: out}},
			Outputs: []string{"out"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	c1, c2 := mk("a"), mk("b")
	if err := c1.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PeerTransfers == 0 {
		t.Fatalf("no peer transfers: %+v", st)
	}
	// The 1MB intermediate moved worker-to-worker, not through the manager.
	if st.PeerBytes < 1<<20 {
		t.Fatalf("peer bytes = %d", st.PeerBytes)
	}
	served := int64(0)
	for _, w := range ws {
		_, b := w.ts.Served()
		served += b
	}
	if served < 1<<20 {
		t.Fatalf("workers served only %d bytes", served)
	}
}

// TestSharedInputStagedOnce pins the one-transfer-per-(file,destination)
// invariant: several tasks needing the same input on the same worker ride
// one staging transfer. Duplicate concurrent put_urls used to race two
// fetches onto one cache path — the second fetch's truncate could be
// published by the first's rename, and a task dispatched in that window
// read zero bytes.
func TestSharedInputStagedOnce(t *testing.T) {
	m, _ := newCluster(t, 1, 4)
	payload := []byte("shared-staging-payload")
	cn := m.DeclareBuffer(payload)
	var hs []*TaskHandle
	for i := 0; i < 4; i++ {
		h, err := m.Submit(Task{
			Mode: ModeTask, Library: "testlib", Func: "concat", Args: []byte{byte('a' + i)},
			Inputs:  []FileRef{{Name: "in", CacheName: cn}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if err := h.Wait(10 * time.Second); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if got := fetchOutput(t, m, h, "out"); !bytes.Equal(got, payload) {
			t.Fatalf("task %d read %q, want %q", i, got, payload)
		}
	}
	if st := m.Stats(); st.ManagerTransfers != 1 {
		t.Fatalf("shared input staged %d times, want exactly 1: %+v", st.ManagerTransfers, st)
	}
}

func TestWorkQueueModeRoutesThroughManager(t *testing.T) {
	m, _ := newCluster(t, 2, 1, WithPeerTransfers(false), WithReturnOutputs(true))
	p, err := m.SubmitFunc(ModeTask, "testlib", "bigout", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := p.Output("out")
	// Wait for the manager to pull the output back (WQ data flow).
	waitUntil(m, 5*time.Second, func() bool { return m.ReplicaCount(out) >= 2 })
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "concat",
		Inputs:  []FileRef{{Name: "in", CacheName: out}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ManagerBytes == 0 {
		t.Fatalf("manager moved no bytes: %+v", st)
	}
}

func TestWorkerFailureRecovery(t *testing.T) {
	m, ws := newCluster(t, 2, 1)
	p, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("precious"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := p.Output("out")
	// Find and kill the worker holding the only replica.
	var victim *Worker
	for _, w := range ws {
		for _, cn := range w.CacheNames() {
			if cn == out {
				victim = w
			}
		}
	}
	if victim == nil {
		t.Fatal("no worker holds the output")
	}
	victim.Stop()
	// A consumer of the lost output forces the manager to re-run the
	// producer on the surviving worker.
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: out}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(15 * time.Second); err != nil {
		t.Fatalf("recovery failed: %v (stats %+v)", err, m.Stats())
	}
	if got := fetchOutput(t, m, h, "out"); string(got) != "ECHO:PRECIOUS" {
		t.Fatalf("got %q", got)
	}
	if m.Stats().WorkersLost != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestRunningTaskRequeuedOnWorkerDeath(t *testing.T) {
	m, ws := newCluster(t, 2, 1)
	// Fill both workers with sleeps, then kill one mid-flight.
	h1, _ := m.SubmitFunc(ModeTask, "testlib", "sleep50", []byte("1"), "out")
	h2, _ := m.SubmitFunc(ModeTask, "testlib", "sleep50", []byte("2"), "out")
	waitUntil(m, 5*time.Second, func() bool {
		return h1.State() == TaskRunning && h2.State() == TaskRunning
	})
	ws[0].Stop()
	if err := h1.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDiskLimitFailsTask(t *testing.T) {
	registerTestLib(t)
	m, err := NewManager(WithPeerTransfers(true), WithMaxRetries(1),
		WithLibrary("testlib", true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	w, err := NewWorker(m.Addr(), WithCores(1), WithCacheDir(t.TempDir()), WithDiskLimit(1024))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h, err := m.SubmitFunc(ModeTask, "testlib", "bigout", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); err == nil {
		t.Fatal("1MB output fit in a 1KB cache")
	} else if !strings.Contains(err.Error(), "cache full") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUnlink(t *testing.T) {
	m, ws := newCluster(t, 1, 1)
	h, _ := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("x"), "out")
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := h.Output("out")
	if m.ReplicaCount(out) != 1 {
		t.Fatalf("replicas = %d", m.ReplicaCount(out))
	}
	m.Unlink(out)
	if m.ReplicaCount(out) != 0 {
		t.Fatal("unlink left replicas")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ws[0].CacheNames()) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(ws[0].CacheNames()); n != 0 {
		t.Fatalf("worker still caches %d files", n)
	}
}

func TestWaitAnyDrainsAll(t *testing.T) {
	m, _ := newCluster(t, 2, 2)
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := m.SubmitFunc(ModeFunctionCall, "testlib", "echo", []byte(fmt.Sprint(i)), "out"); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		h, err := m.WaitAny(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h.ID] {
			t.Fatalf("task %d returned twice", h.ID)
		}
		seen[h.ID] = true
	}
	if _, err := m.WaitAny(50 * time.Millisecond); err == nil {
		t.Fatal("WaitAny returned a 13th task")
	}
}

func TestManyConcurrentFunctionCalls(t *testing.T) {
	m, _ := newCluster(t, 4, 4)
	const n = 100
	handles := make([]*TaskHandle, n)
	for i := range handles {
		h, err := m.SubmitFunc(ModeFunctionCall, "testlib", "echo", []byte(fmt.Sprint(i)), "out")
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if err := h.Wait(20 * time.Second); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if got := m.Stats().TasksDone; got != n {
		t.Fatalf("done = %d", got)
	}
}

func TestTransferServerDirect(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	cn := m.DeclareBuffer([]byte("direct fetch"))
	got, err := fetchBytes(m.ts.Addr(), cn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "direct fetch" {
		t.Fatalf("got %q", got)
	}
	if _, err := fetchBytes(m.ts.Addr(), CacheName("blob:"+strings.Repeat("1", 64))); err == nil {
		t.Fatal("missing file fetch succeeded")
	}
}

func TestTransferRejectsGarbageRequest(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	c, err := net.Dial("tcp", m.ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "DELETE everything\n")
	buf := make([]byte, 64)
	n, _ := c.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "ERR") {
		t.Fatalf("got %q", buf[:n])
	}
}

func writeFileHelper(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestReplicationSurvivesWorkerLoss(t *testing.T) {
	m, ws := newCluster(t, 2, 1, WithReplication(2))
	p, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("replicate me"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := p.Output("out")
	// Replication is asynchronous; wait for the second copy.
	waitUntil(m, 5*time.Second, func() bool { return m.ReplicaCount(out) >= 2 })
	if m.ReplicaCount(out) < 2 {
		t.Fatalf("replicas = %d, want 2", m.ReplicaCount(out))
	}
	// Kill one holder; the data must remain fetchable without a re-run.
	var victim *Worker
	for _, w := range ws {
		for _, cn := range w.CacheNames() {
			if cn == out && victim == nil {
				victim = w
			}
		}
	}
	victim.Stop()
	waitUntil(m, 5*time.Second, func() bool { return m.WorkerCount() <= 1 })
	data, err := m.FetchBytes(out)
	if err != nil {
		t.Fatalf("replica lost with the worker: %v", err)
	}
	if string(data) != "echo:replicate me" {
		t.Fatalf("got %q", data)
	}
	if got := m.Stats().Retries; got != 0 {
		t.Fatalf("re-runs happened despite replica: %d", got)
	}
}

func TestReplicationCapsAtWorkerCount(t *testing.T) {
	m, _ := newCluster(t, 2, 1, WithReplication(5))
	p, _ := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("x"), "out")
	if err := p.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out, _ := p.Output("out")
	waitUntil(m, 3*time.Second, func() bool { return m.ReplicaCount(out) >= 2 })
	if got := m.ReplicaCount(out); got != 2 {
		t.Fatalf("replicas = %d, want exactly the 2 workers", got)
	}
}

func TestMemoryPacking(t *testing.T) {
	registerTestLib(t)
	m, err := NewManager(WithPeerTransfers(true), WithLibrary("testlib", true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	// One worker with 4 cores but only 1GB of memory.
	w, err := NewWorker(m.Addr(), WithCores(4), WithMemory(1<<30), WithCacheDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Two 600MB tasks cannot run concurrently on 1GB; both must still
	// complete (serialized by the memory budget).
	mk := func(tag string) *TaskHandle {
		h, err := m.Submit(Task{
			Mode: ModeTask, Library: "testlib", Func: "sleep50", Args: []byte(tag),
			Outputs: []string{"out"}, Memory: 600 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	start := time.Now()
	h1, h2 := mk("m1"), mk("m2")
	if err := h1.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Each sleeps 50ms; serialized execution takes >= ~100ms.
	if elapsed := time.Since(start); elapsed < 95*time.Millisecond {
		t.Fatalf("memory budget not enforced: both ran concurrently (%v)", elapsed)
	}
	// A task requesting more memory than any worker has never runs.
	big, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "echo", Args: []byte("big"),
		Outputs: []string{"out"}, Memory: 8 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Wait(300 * time.Millisecond); err == nil {
		t.Fatal("oversized task ran on a small worker")
	}
	if big.State() == TaskDone {
		t.Fatal("oversized task completed")
	}
}

func TestManagerIntrospection(t *testing.T) {
	m, ws := newCluster(t, 2, 3)
	h, _ := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("i"), "out")
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	infos := m.Workers()
	if len(infos) != 2 {
		t.Fatalf("workers = %d", len(infos))
	}
	cached, cachedBytes := 0, int64(0)
	for _, wi := range infos {
		if !wi.Alive || wi.Cores != 3 {
			t.Fatalf("worker info wrong: %+v", wi)
		}
		cached += wi.CachedFiles
		cachedBytes += wi.CacheBytes
	}
	if cached == 0 {
		t.Fatal("no cached files visible")
	}
	if want := int64(len("echo:i")); cachedBytes != want*int64(cached) {
		t.Fatalf("cache bytes = %d over %d files, want %d each", cachedBytes, cached, want)
	}
	counts := m.TaskCounts()
	if counts[TaskDone] != 1 {
		t.Fatalf("task counts = %v", counts)
	}
	ws[0].Stop()
	waitUntil(m, 3*time.Second, func() bool { return m.WorkerCount() == 1 })
	alive := 0
	for _, wi := range m.Workers() {
		if wi.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("alive workers = %d", alive)
	}
}

func TestManagerStoppedRejectsWork(t *testing.T) {
	registerTestLib(t)
	m, err := NewManager(WithPeerTransfers(true))
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Stop() // idempotent
	if _, err := m.SubmitFunc(ModeTask, "testlib", "echo", nil, "out"); err == nil {
		t.Fatal("submit accepted after stop")
	}
	if _, err := m.WaitAny(0); err == nil {
		t.Fatal("WaitAny returned after stop")
	}
}

func TestWaitAnyTimesOut(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	if _, err := m.WaitAny(30 * time.Millisecond); err == nil {
		t.Fatal("WaitAny with no tasks returned")
	}
}

func TestHandleWaitTimeout(t *testing.T) {
	registerTestLib(t)
	m, err := NewManager(WithPeerTransfers(true), WithLibrary("testlib", true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	// No workers: the task can never run.
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", nil, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(50 * time.Millisecond); err == nil {
		t.Fatal("wait with no workers returned")
	}
	if h.State() != TaskReady {
		t.Fatalf("state = %v", h.State())
	}
}

// A Wait that returns on completion must release its timeout timer: an
// unstopped hour-long timer stays on the heap until it fires.
func TestHandleWaitReleasesTimer(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("x"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 5000; i++ {
		if err := h.Wait(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if grown := int64(heap()) - int64(before); grown > 256<<10 {
		t.Fatalf("live heap grew %d bytes over 5000 completed Waits", grown)
	}
}

func TestFetchBytesErrors(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	if _, err := m.FetchBytes(CacheName("blob:" + strings.Repeat("a", 64))); err == nil {
		t.Fatal("unknown file fetched")
	}
	if m.ReplicaCount(CacheName("blob:"+strings.Repeat("b", 64))) != 0 {
		t.Fatal("unknown file has replicas")
	}
}

func TestDuplicateInputNamesRejected(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	cn := m.DeclareBuffer([]byte("x"))
	_, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "concat",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}, {Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err == nil {
		t.Fatal("duplicate input names accepted")
	}
}

func TestDeclareBufferIdempotent(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	a := m.DeclareBuffer([]byte("same content"))
	b := m.DeclareBuffer([]byte("same content"))
	if a != b {
		t.Fatal("identical buffers got different cachenames")
	}
	got, err := m.FetchBytes(a)
	if err != nil || string(got) != "same content" {
		t.Fatalf("fetch: %q %v", got, err)
	}
}

func TestDeclareFileMissing(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	if _, err := m.DeclareFile("/nonexistent/path.bin"); err == nil {
		t.Fatal("missing file declared")
	}
}
