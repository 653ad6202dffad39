package foreman

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hepvine/internal/vine"
)

func registerFedLib(t *testing.T) {
	t.Helper()
	vine.MustRegisterLibrary(&vine.Library{
		Name: "fedlib",
		Funcs: map[string]vine.Function{
			"echo": func(c *vine.Call) error {
				c.SetOutput("out", append([]byte("echo:"), c.Args...))
				return nil
			},
			"slowup": func(c *vine.Call) error {
				in, err := c.Input("in")
				if err != nil {
					return err
				}
				time.Sleep(20 * time.Millisecond)
				c.SetOutput("out", append(bytes.ToUpper(in), c.Args...))
				return nil
			},
		},
	})
}

func newFed(t *testing.T, foremen, workersPer int, rootOpts ...vine.Option) *LocalFederation {
	t.Helper()
	registerFedLib(t)
	fed, err := NewLocalFederation(LocalConfig{
		Foremen:           foremen,
		WorkersPerForeman: workersPer,
		CoresPerWorker:    2,
		ReportEvery:       15 * time.Millisecond,
		RootOptions: append([]vine.Option{
			vine.WithMaxRetries(10),
			vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
		}, rootOpts...),
		LocalOptions: func(int) []vine.Option {
			return []vine.Option{
				vine.WithPeerTransfers(true),
				vine.WithLibrary("fedlib", true),
				vine.WithMaxRetries(10),
				vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
			}
		},
		WorkerOptions: func(int, int) []vine.Option {
			return []vine.Option{vine.WithCacheDir(t.TempDir())}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	if err := fed.Root.WaitForWorkers(foremen, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestFederationEcho drives one task down the full tree: root lease →
// foreman → local scheduler → worker → report → root completion, with
// the output fetched back through the shard's transfer address.
func TestFederationEcho(t *testing.T) {
	fed := newFed(t, 2, 1)
	h, err := fed.Root.SubmitFunc(vine.ModeTask, "fedlib", "echo", []byte("hi"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cn, _ := h.Output("out")
	data, err := fed.Root.FetchBytes(cn)
	if err != nil {
		t.Fatalf("fetching output across shard boundary: %v", err)
	}
	if string(data) != "echo:hi" {
		t.Fatalf("got %q", data)
	}
	st := fed.Root.FederationStats()
	if st.Foremen != 2 || st.LeaseGrants < 1 || st.LeaseBatches < 1 {
		t.Fatalf("federation stats: %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shards: %+v", st.Shards)
	}
	done := 0
	for _, sh := range st.Shards {
		done += sh.TasksDone
	}
	if done != 1 {
		t.Fatalf("per-shard done counts: %+v", st.Shards)
	}
}

// TestFederationLeaseBatching floods the root with independent tasks:
// placements must coalesce into batched lease frames, so the root sends
// fewer frames than it places tasks.
func TestFederationLeaseBatching(t *testing.T) {
	fed := newFed(t, 2, 1)
	const tasks = 64
	hs := make([]*vine.TaskHandle, tasks)
	for i := range hs {
		h, err := fed.Root.SubmitFunc(vine.ModeTask, "fedlib", "echo", []byte(fmt.Sprint(i)), "out")
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	for i, h := range hs {
		if err := h.Wait(15 * time.Second); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	st := fed.Root.FederationStats()
	if st.LeaseGrants < tasks {
		t.Fatalf("%d lease grants for %d tasks: %+v", st.LeaseGrants, tasks, st)
	}
	if st.LeaseBatches >= tasks {
		t.Fatalf("%d root lease frames for %d tasks — lease batching is off", st.LeaseBatches, tasks)
	}
}

// TestFederationCrossShardTickets pins the data-plane property: a
// consumer leased to the shard that does not hold its input gets a
// peer-transfer ticket and pulls the bytes worker-to-worker, visible as
// cross-shard transfer accounting at the root.
func TestFederationCrossShardTickets(t *testing.T) {
	fed := newFed(t, 2, 1)
	seed, err := fed.Root.SubmitFunc(vine.ModeTask, "fedlib", "echo", []byte("seed"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seedCN, _ := seed.Output("out")

	// Six 1-core consumers of the seed against 2+2 shard cores: the first
	// scheduling pass must spill onto the shard that lacks the seed.
	var hs []*vine.TaskHandle
	for i := 0; i < 6; i++ {
		h, err := fed.Root.Submit(vine.Task{
			Mode: vine.ModeTask, Library: "fedlib", Func: "slowup",
			Args:    []byte(fmt.Sprintf("-%d", i)),
			Inputs:  []vine.FileRef{{Name: "in", CacheName: seedCN}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if err := h.Wait(15 * time.Second); err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		cn, _ := h.Output("out")
		data, err := fed.Root.FetchBytes(cn)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ECHO:SEED-%d", i); string(data) != want {
			t.Fatalf("consumer %d: got %q want %q", i, data, want)
		}
	}
	st := fed.Root.FederationStats()
	if st.CrossShard < 1 {
		t.Fatalf("no cross-shard tickets brokered: %+v", st)
	}
	if st.CrossShardBytes < 1 {
		t.Fatalf("cross-shard bytes not accounted: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.TasksDone == 0 {
			t.Fatalf("shard %s ran nothing — no spillover: %+v", sh.Name, st.Shards)
		}
	}
}

// TestFederationForemanCrashRehome kills one of two foremen mid-batch:
// its in-flight leases must replay onto the surviving shard, its workers
// must re-home there, and every task must still finish correctly.
func TestFederationForemanCrashRehome(t *testing.T) {
	fed := newFed(t, 2, 1)
	seed, err := fed.Root.SubmitFunc(vine.ModeTask, "fedlib", "echo", []byte("x"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seedCN, _ := seed.Output("out")

	var hs []*vine.TaskHandle
	for i := 0; i < 10; i++ {
		h, err := fed.Root.Submit(vine.Task{
			Mode: vine.ModeTask, Library: "fedlib", Func: "slowup",
			Args:    []byte(fmt.Sprintf("!%d", i)),
			Inputs:  []vine.FileRef{{Name: "in", CacheName: seedCN}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// Wait until the doomed shard has accepted work, then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if leased, _ := fed.Foremen[0].Counts(); leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard-0 never accepted a lease")
		}
		time.Sleep(time.Millisecond)
	}
	fed.Foremen[0].Crash()

	for i, h := range hs {
		if err := h.Wait(30 * time.Second); err != nil {
			t.Fatalf("task %d did not survive foreman crash: %v", i, err)
		}
		cn, _ := h.Output("out")
		data, err := fed.Root.FetchBytes(cn)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ECHO:X!%d", i); string(data) != want {
			t.Fatalf("task %d: got %q want %q", i, data, want)
		}
	}
	st := fed.Root.FederationStats()
	if st.Foremen != 1 {
		t.Fatalf("live foremen after crash = %d: %+v", st.Foremen, st)
	}
	alive := 0
	for _, sh := range st.Shards {
		if sh.Alive {
			alive++
			if sh.TasksDone == 0 {
				t.Fatalf("survivor shard ran nothing: %+v", st.Shards)
			}
		}
	}
	if alive != 1 {
		t.Fatalf("shard snapshot: %+v", st.Shards)
	}
}
