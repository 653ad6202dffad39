package core

import (
	"fmt"
	"testing"
	"time"

	"hepvine/internal/dag"
	"hepvine/internal/storage"
	"hepvine/internal/units"
)

func TestGovernorCap(t *testing.T) {
	g := NewGovernor(2)
	started := []int{}
	choose := func(maxLoad int) int {
		if g.Outbound(1) < maxLoad {
			return 1
		}
		return -1
	}
	for i := 0; i < 5; i++ {
		g.Request(TransferRequest{File: storage.FileID(fmt.Sprint(i)), Dest: 9},
			choose, func(src int) { started = append(started, src) })
	}
	if len(started) != 2 {
		t.Fatalf("started %d with cap 2", len(started))
	}
	if g.QueueLen() != 3 {
		t.Fatalf("queued %d", g.QueueLen())
	}
	g.Done(1)
	if len(started) != 3 || g.Outbound(1) != 2 {
		t.Fatalf("after done: started=%d outbound=%d", len(started), g.Outbound(1))
	}
	g.Done(1)
	g.Done(1)
	g.Done(1)
	if len(started) != 5 || g.QueueLen() != 0 {
		t.Fatalf("drain incomplete: started=%d queue=%d", len(started), g.QueueLen())
	}
}

func TestGovernorUncapped(t *testing.T) {
	g := NewGovernor(0)
	started := 0
	for i := 0; i < 100; i++ {
		g.Request(TransferRequest{}, func(maxLoad int) int { return 1 }, func(int) { started++ })
	}
	if started != 100 {
		t.Fatalf("started %d", started)
	}
}

func TestGovernorDoneUnderflowSafe(t *testing.T) {
	g := NewGovernor(3)
	g.Done(5) // never incremented; must not go negative
	if g.Outbound(5) != 0 {
		t.Fatalf("outbound = %d", g.Outbound(5))
	}
}

func TestOutputFileID(t *testing.T) {
	if OutputFileID("task-1") != storage.FileID("out:task-1") {
		t.Fatal("output id wrong")
	}
}

func buildWorkload(t *testing.T) *Workload {
	t.Helper()
	g := dag.NewGraph()
	g.MustAdd(&dag.Task{Key: "p", Spec: &SimSpec{
		Compute: time.Second, Inputs: []storage.FileID{"ds:x"}, OutputSize: units.MB,
	}})
	g.MustAdd(&dag.Task{Key: "acc", Deps: []dag.Key{"p"}, Spec: &SimSpec{
		Compute: time.Second, OutputSize: units.MB,
	}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return &Workload{
		Name: "w", Graph: g, Root: "acc",
		DatasetFiles: map[storage.FileID]units.Bytes{"ds:x": 10 * units.MB},
	}
}

func TestWorkloadValidate(t *testing.T) {
	wl := buildWorkload(t)
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	if wl.InputBytes() != 10*units.MB {
		t.Fatalf("input = %v", wl.InputBytes())
	}
	if wl.TaskCount() != 2 {
		t.Fatalf("tasks = %d", wl.TaskCount())
	}
	if wl.TotalCompute() != 2*time.Second {
		t.Fatalf("compute = %v", wl.TotalCompute())
	}
}

func TestWorkloadValidateRejections(t *testing.T) {
	wl := buildWorkload(t)
	wl.Root = "ghost"
	if err := wl.Validate(); err == nil {
		t.Fatal("bad root accepted")
	}
	wl = buildWorkload(t)
	delete(wl.DatasetFiles, "ds:x")
	if err := wl.Validate(); err == nil {
		t.Fatal("undeclared dataset accepted")
	}
	// Missing SimSpec.
	g := dag.NewGraph()
	g.MustAdd(&dag.Task{Key: "x", Spec: "not a simspec"})
	g.Finalize()
	wl2 := &Workload{Name: "bad", Graph: g, Root: "x", DatasetFiles: map[storage.FileID]units.Bytes{}}
	if err := wl2.Validate(); err == nil {
		t.Fatal("non-SimSpec accepted")
	}
	// Negative cost.
	g2 := dag.NewGraph()
	g2.MustAdd(&dag.Task{Key: "x", Spec: &SimSpec{Compute: -time.Second}})
	g2.Finalize()
	wl3 := &Workload{Name: "neg", Graph: g2, Root: "x", DatasetFiles: map[storage.FileID]units.Bytes{}}
	if err := wl3.Validate(); err == nil {
		t.Fatal("negative compute accepted")
	}
}
