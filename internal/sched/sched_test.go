package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func task(id string, cores int, inputs ...string) *Task {
	return &Task{ID: id, Cores: cores, Inputs: inputs}
}

// ---- policy pipeline ----

func TestFitFilter(t *testing.T) {
	f := FitFilter{}
	tk := &Task{Cores: 2, Memory: 100}
	if f.Keep(tk, &Candidate{FreeCores: 1, Memory: 1000, FreeMemory: 500}) {
		t.Error("kept worker with too few cores")
	}
	if f.Keep(tk, &Candidate{FreeCores: 4, Memory: 1000, FreeMemory: 50}) {
		t.Error("kept worker with too little memory")
	}
	if !f.Keep(tk, &Candidate{FreeCores: 4, Memory: 0, FreeMemory: 0}) {
		t.Error("memory must not be enforced when the worker reports none")
	}
	if !f.Keep(&Task{Cores: 2}, &Candidate{FreeCores: 2, Memory: 1000, FreeMemory: 0}) {
		t.Error("memory must not be enforced when the task declares none")
	}
}

func TestExcludeFilter(t *testing.T) {
	tk := &Task{Exclude: map[int]bool{3: true}}
	f := ExcludeFilter{}
	if f.Keep(tk, &Candidate{ID: 3}) {
		t.Error("kept excluded worker")
	}
	if !f.Keep(tk, &Candidate{ID: 4}) {
		t.Error("dropped non-excluded worker")
	}
}

func TestPickLexicographic(t *testing.T) {
	p := Locality()
	tk := task("t", 1, "a")
	cands := []Candidate{
		{ID: 1, FreeCores: 8, LocalBytes: 10},
		{ID: 2, FreeCores: 2, LocalBytes: 50}, // most local bytes wins despite fewer cores
		{ID: 3, FreeCores: 9, LocalBytes: 50}, // ...unless tied on bytes, then free cores
	}
	idx, score := p.Pick(tk, cands)
	if cands[idx].ID != 3 {
		t.Fatalf("picked worker %d, want 3", cands[idx].ID)
	}
	if score != 50 {
		t.Fatalf("primary score = %v, want 50", score)
	}
}

func TestPickTieBreakLowestID(t *testing.T) {
	p := Locality()
	cands := []Candidate{
		{ID: 7, FreeCores: 4},
		{ID: 2, FreeCores: 4},
		{ID: 9, FreeCores: 4},
	}
	// Candidates are presented in slice order; with fully tied scores the
	// first (and, when callers present ascending ids, the lowest id) wins.
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	idx, _ := p.Pick(task("t", 1), cands)
	if cands[idx].ID != 2 {
		t.Fatalf("picked worker %d, want lowest id 2", cands[idx].ID)
	}
}

func TestPickNoFeasible(t *testing.T) {
	idx, _ := Locality().Pick(task("t", 4), []Candidate{{ID: 1, FreeCores: 2}})
	if idx != -1 {
		t.Fatalf("idx = %d, want -1 for no feasible worker", idx)
	}
}

func TestBinPackPrefersFullest(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Cores: 8, FreeCores: 8},
		{ID: 2, Cores: 8, FreeCores: 2},
	}
	idx, _ := BinPack().Pick(task("t", 1), cands)
	if cands[idx].ID != 2 {
		t.Fatalf("binpack picked %d, want fullest feasible worker 2", cands[idx].ID)
	}
}

func TestSpreadPrefersEmptiest(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Cores: 8, FreeCores: 2},
		{ID: 2, Cores: 8, FreeCores: 8},
	}
	idx, _ := Spread().Pick(task("t", 1), cands)
	if cands[idx].ID != 2 {
		t.Fatalf("spread picked %d, want emptiest worker 2", cands[idx].ID)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cands := []Candidate{{ID: 1, FreeCores: 4}, {ID: 2, FreeCores: 4}, {ID: 3, FreeCores: 4}}
	a, _ := Random(42).Pick(task("x", 1), cands)
	b, _ := Random(42).Pick(task("x", 1), cands)
	if a != b {
		t.Fatal("same seed must give the same placement")
	}
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		idx, _ := Random(7).Pick(task(fmt.Sprintf("t%d", i), 1), cands)
		spread[cands[idx].ID] = true
	}
	if len(spread) < 2 {
		t.Fatal("random policy never varied placement across tasks")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if p, err := ByName("", 1); err != nil || p.Name != "locality" {
		t.Fatalf("empty name must default to locality, got %v, %v", p, err)
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// legacyPick is the greedy loop previously buried in the live manager's
// pickWorkerLocked, kept here verbatim as a differential oracle: most
// local input bytes, tie-break most free cores, scanning ascending ids so
// the lowest id wins full ties.
func legacyPick(t *Task, cands []Candidate) int {
	best, bestLocal, bestFree := -1, int64(-1), -1
	for i := range cands {
		c := &cands[i]
		if t.Exclude[c.ID] {
			continue
		}
		if c.FreeCores < t.Cores {
			continue
		}
		if c.Memory > 0 && t.Memory > 0 && c.FreeMemory < t.Memory {
			continue
		}
		if c.LocalBytes > bestLocal || (c.LocalBytes == bestLocal && c.FreeCores > bestFree) {
			best, bestLocal, bestFree = i, c.LocalBytes, c.FreeCores
		}
	}
	return best
}

func TestLocalityMatchesLegacyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pol := Locality()
	for trial := 0; trial < 2000; trial++ {
		nw := 1 + rng.Intn(12)
		cands := make([]Candidate, nw)
		for i := range cands {
			cores := 1 + rng.Intn(16)
			mem := int64(rng.Intn(3)) * 1 << 20 // sometimes unreported
			cands[i] = Candidate{
				ID: i, Cores: cores, FreeCores: rng.Intn(cores + 1),
				Memory: mem, FreeMemory: mem / int64(1+rng.Intn(3)),
				LocalBytes: int64(rng.Intn(4)) * 1000,
			}
		}
		tk := &Task{
			ID: fmt.Sprintf("t%d", trial), Cores: 1 + rng.Intn(4),
			Memory: int64(rng.Intn(2)) * 512 << 10,
		}
		if rng.Intn(4) == 0 {
			tk.Exclude = map[int]bool{rng.Intn(nw): true}
		}
		got, _ := pol.Pick(tk, cands)
		want := legacyPick(tk, cands)
		if got != want {
			t.Fatalf("trial %d: Locality picked %d, legacy greedy picked %d\ntask=%+v\ncands=%+v",
				trial, got, want, tk, cands)
		}
	}
}

// ---- heap ordering ----

func TestHeapOrdering(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(1, 1, 0)
	s.Enqueue(&Task{ID: "low1", Cores: 1, Priority: 0}, 0)
	s.Enqueue(&Task{ID: "hi", Cores: 1, Priority: 5}, 0)
	s.Enqueue(&Task{ID: "low2", Cores: 1, Priority: 0}, 0)
	s.Enqueue(&Task{ID: "mid", Cores: 1, Priority: 3}, 0)

	var got []string
	for len(got) < 4 {
		n := s.Assign(0, func(a Assignment) {
			got = append(got, a.Task.ID)
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
		if n == 0 {
			t.Fatal("assign stalled")
		}
	}
	want := []string{"hi", "mid", "low1", "low2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (priority desc, FIFO within class)", got, want)
		}
	}
}

// ---- fair share ----

// drain runs rounds of one-core dispatches on a single one-core worker,
// releasing after each, and counts dispatches per queue.
func drain(t *testing.T, s *Scheduler, rounds int) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for i := 0; i < rounds; i++ {
		n := s.Assign(int64(i), func(a Assignment) {
			counts[a.Queue]++
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
		if n == 0 {
			break
		}
	}
	return counts
}

func TestFairShareWeights(t *testing.T) {
	s := New(nil, QueueConfig{Name: "gold", Weight: 3}, QueueConfig{Name: "bronze", Weight: 1})
	s.WorkerJoin(1, 1, 0)
	for i := 0; i < 40; i++ {
		s.Enqueue(&Task{ID: fmt.Sprintf("g%d", i), Queue: "gold", Cores: 1}, 0)
		s.Enqueue(&Task{ID: fmt.Sprintf("b%d", i), Queue: "bronze", Cores: 1}, 0)
	}
	// 40 single-slot rounds: weight 3:1 should translate to ~30:10.
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		s.Assign(int64(i), func(a Assignment) {
			counts[a.Queue]++
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
	}
	if counts["gold"] < 28 || counts["gold"] > 32 {
		t.Fatalf("gold got %d of 40 dispatches, want ~30 for weight 3:1 (bronze %d)",
			counts["gold"], counts["bronze"])
	}
}

func TestFairShareIdleQueueBanksNoCredit(t *testing.T) {
	s := New(nil, QueueConfig{Name: "a", Weight: 1}, QueueConfig{Name: "b", Weight: 1})
	s.WorkerJoin(1, 1, 0)
	// Queue a runs alone for a while, racking up served time.
	for i := 0; i < 20; i++ {
		s.Enqueue(&Task{ID: fmt.Sprintf("a%d", i), Queue: "a", Cores: 1}, 0)
	}
	drain(t, s, 20)
	// Now b wakes up with a backlog alongside fresh a work. Without the
	// virtual-start clamp b would monopolise the worker for 20 dispatches.
	for i := 0; i < 20; i++ {
		s.Enqueue(&Task{ID: fmt.Sprintf("a2%d", i), Queue: "a", Cores: 1}, 0)
		s.Enqueue(&Task{ID: fmt.Sprintf("b%d", i), Queue: "b", Cores: 1}, 0)
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		s.Assign(int64(i), func(a Assignment) {
			counts[a.Queue]++
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
	}
	if counts["b"] > 12 {
		t.Fatalf("reactivated queue b took %d of 20 slots — idle time banked as credit", counts["b"])
	}
	if counts["a"] == 0 {
		t.Fatal("queue a starved by reactivated queue")
	}
}

// ---- scheduler mechanics ----

func TestWorkerIndexStaysSorted(t *testing.T) {
	s := New(nil)
	for _, id := range []int{5, 1, 9, 3, 7} {
		s.WorkerJoin(id, 4, 0)
	}
	s.WorkerLost(9)
	s.WorkerLost(1)
	ids := s.WorkerIDs()
	want := []int{3, 5, 7}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestEnqueueDedupAndDequeue(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(1, 4, 0)
	tk := task("t1", 1)
	s.Enqueue(tk, 0)
	s.Enqueue(tk, 5) // duplicate: no-op, keeps original EnqueuedAt
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after duplicate enqueue, want 1", s.Pending())
	}
	if tk.EnqueuedAt != 0 {
		t.Fatalf("duplicate enqueue reset EnqueuedAt to %d", tk.EnqueuedAt)
	}
	if !s.Dequeue("t1") {
		t.Fatal("dequeue of queued task returned false")
	}
	if s.Dequeue("t1") {
		t.Fatal("second dequeue returned true")
	}
	n := s.Assign(0, func(Assignment) {})
	if n != 0 {
		t.Fatalf("assigned %d tasks after dequeue, want 0", n)
	}
	// Re-enqueue after dequeue must work (requeue path).
	s.Enqueue(tk, 10)
	placed := ""
	s.Assign(12, func(a Assignment) { placed = a.Task.ID })
	if placed != "t1" {
		t.Fatalf("re-enqueued task not placed (got %q)", placed)
	}
}

func TestQueueWaitReported(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(1, 1, 0)
	s.Enqueue(task("t1", 1), 100)
	var wait int64 = -1
	s.Assign(700, func(a Assignment) { wait = a.Wait })
	if wait != 600 {
		t.Fatalf("wait = %d, want 600", wait)
	}
	qs := s.Queues()
	if len(qs) == 0 || qs[0].Dispatched != 1 || qs[0].WaitTotal != 600 {
		t.Fatalf("queue stats = %+v, want dispatched 1 / wait 600", qs)
	}
}

func TestBlockedTaskDoesNotStallRound(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(1, 2, 0)
	s.Enqueue(&Task{ID: "big", Cores: 8, Priority: 9}, 0) // can never fit
	s.Enqueue(task("small", 1), 0)
	placed := []string{}
	s.Assign(0, func(a Assignment) { placed = append(placed, a.Task.ID) })
	if len(placed) != 1 || placed[0] != "small" {
		t.Fatalf("placed %v, want [small] with big parked", placed)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want blocked big still queued", s.Pending())
	}
}

func TestLocalityUsesFileIndex(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(1, 4, 0)
	s.WorkerJoin(2, 4, 0)
	s.Replicas().SetSize("input.root", 1<<20)
	s.Replicas().Add("input.root", 2)
	var worker int
	s.Enqueue(task("t", 1, "input.root"), 0)
	s.Assign(0, func(a Assignment) { worker = a.Worker })
	if worker != 2 {
		t.Fatalf("placed on %d, want data-local worker 2", worker)
	}
	// After eviction the tie falls back to lowest id.
	s.Replicas().Remove("input.root", 2)
	s.Release(2, 1, 0)
	s.Enqueue(task("t2", 1, "input.root"), 0)
	s.Assign(0, func(a Assignment) { worker = a.Worker })
	if worker != 1 {
		t.Fatalf("placed on %d after eviction, want 1", worker)
	}
}

// The hot path must not allocate per placement: the candidate buffer is
// reused, the id slice is maintained, score vectors are stack arrays, and
// LocalBytes reads the replica table in place. Every task has inputs held
// somewhere, so the locality path runs on each decision.
func TestAssignSteadyStateAllocs(t *testing.T) {
	s := New(nil)
	for i := 0; i < 8; i++ {
		s.WorkerJoin(i, 4, 0)
		f := fmt.Sprintf("f%d", i)
		s.Replicas().SetSize(f, int64(i+1)<<20)
		s.Replicas().Add(f, i)
	}
	tasks := make([]*Task, 64)
	for i := range tasks {
		tasks[i] = task(fmt.Sprintf("t%d", i), 1, fmt.Sprintf("f%d", i%8), fmt.Sprintf("f%d", (i+3)%8))
	}
	i, local := 0, 0
	// Warm up once so lazily-grown scratch buffers reach steady state.
	run := func() {
		for _, tk := range tasks {
			s.Enqueue(tk, int64(i))
		}
		s.Assign(int64(i), func(a Assignment) {
			if a.Score > 0 {
				local++
			}
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
		i++
	}
	run()
	avg := testing.AllocsPerRun(10, run)
	// Enqueue itself heap-pushes into a pre-grown slice; allow a tiny
	// budget for map internals but nothing proportional to workers×tasks.
	if avg > 5 {
		t.Fatalf("steady-state Assign allocates %.1f per round, want ~0", avg)
	}
	if local == 0 {
		t.Fatal("no placement scored any local bytes; the locality path did not run")
	}

	// The lookahead path: worker 1 holds "a" and stays busy, so every head
	// needing "a" scans the window on worker 0 before it is kept.
	s = busyPair()
	for i := range tasks {
		in := "a"
		if i%2 == 1 {
			in = fmt.Sprintf("b%d", i)
		}
		tasks[i] = task(fmt.Sprintf("t%d", i), 1, in)
	}
	scans := 0
	run = func() {
		for _, tk := range tasks {
			s.Enqueue(tk, int64(i))
		}
		s.Assign(int64(i), func(a Assignment) {
			if a.Task.Inputs[0] != "a" {
				scans++
			}
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
		i++
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg > 5 {
		t.Fatalf("steady-state Assign with lookahead allocates %.1f per round, want ~0", avg)
	}
	if scans == 0 {
		t.Fatal("no fresh task was taken past a head; the lookahead did not run")
	}
}

// ---- lookahead ----

// TestAssignKeepsEachFileOnOneWorker is the DV3 shape: 2 one-core workers,
// 10 files × 4 chunk tasks enqueued in file order, completions simulated
// one at a time in dispatch order. A placement that needs a file the worker
// lacks starts a transfer, which is in flight until the task completes.
// Each file's chunks run on one worker, apart from at most one tail task
// per worker stolen when the queue holds nothing else. Pure FIFO (no
// lookahead, no in-flight replicas) alternates the workers and splits all
// ten files 2/2 across them: f0c0→0 f0c1→1 f0c2→0 f0c3→1 f1c0→0 ...
func TestAssignKeepsEachFileOnOneWorker(t *testing.T) {
	s := New(nil)
	s.WorkerJoin(0, 1, 0)
	s.WorkerJoin(1, 1, 0)
	r := s.Replicas()
	for f := 0; f < 10; f++ {
		name := fmt.Sprintf("file%d", f)
		r.SetSize(name, 2<<20)
		for c := 0; c < 4; c++ {
			s.Enqueue(task(fmt.Sprintf("f%dc%d", f, c), 1, name), 0)
		}
	}
	ran := map[string][2]int{} // file -> chunks run per worker
	var running []Assignment
	place := func(a Assignment) {
		f := a.Task.Inputs[0]
		if !r.Holds(f, a.Worker) {
			r.AddInflight(f, a.Worker)
		}
		n := ran[f]
		n[a.Worker]++
		ran[f] = n
		running = append(running, a)
	}
	s.Assign(0, place)
	for now := int64(1); len(running) > 0; now++ {
		a := running[0]
		running = running[1:]
		r.Add(a.Task.Inputs[0], a.Worker)
		s.Release(a.Worker, 1, 0)
		s.Assign(now, place)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d tasks never placed", s.Pending())
	}
	var stolen [2]int
	for f, n := range ran {
		if n[0]+n[1] != 4 {
			t.Fatalf("%s ran %v chunks, want 4", f, n)
		}
		switch {
		case n[0] == 0 || n[1] == 0:
		case n[0] == 1:
			stolen[0]++
		case n[1] == 1:
			stolen[1]++
		default:
			t.Errorf("%s split %d/%d across the workers", f, n[0], n[1])
		}
	}
	if stolen[0] > 1 || stolen[1] > 1 {
		t.Errorf("stolen tail tasks per worker = %v, want at most 1 each (%v)", stolen, ran)
	}
}

// busyPair is two one-core workers where worker 1 holds "a" and is busy,
// so a head needing "a" is given worker 0 with nothing local.
func busyPair(qs ...QueueConfig) *Scheduler {
	s := New(nil, qs...)
	s.WorkerJoin(0, 1, 0)
	s.WorkerJoin(1, 1, 0)
	s.Replicas().SetSize("a", 1<<20)
	s.Replicas().Add("a", 1)
	s.Reserve(1, 1, 0)
	return s
}

func assignOnce(s *Scheduler, now int64) []string {
	var got []string
	s.Assign(now, func(a Assignment) { got = append(got, fmt.Sprintf("%s@%d", a.Task.ID, a.Worker)) })
	return got
}

func TestLookaheadStaysInPriorityAndQueue(t *testing.T) {
	// A lower-priority fresh task behind the head is never taken instead.
	s := busyPair()
	s.Enqueue(&Task{ID: "hi", Cores: 1, Priority: 5, Inputs: []string{"a"}}, 0)
	s.Enqueue(&Task{ID: "lo", Cores: 1, Inputs: []string{"b"}}, 0)
	if got := assignOnce(s, 1); fmt.Sprint(got) != "[hi@0]" {
		t.Fatalf("placed %v, want the higher-priority head kept: [hi@0]", got)
	}
	// Nor is a fresh task in another queue.
	s = busyPair(QueueConfig{Name: "x"}, QueueConfig{Name: "y"})
	s.Enqueue(&Task{ID: "x1", Queue: "x", Cores: 1, Inputs: []string{"a"}}, 0)
	s.Enqueue(&Task{ID: "y1", Queue: "y", Cores: 1, Inputs: []string{"b"}}, 0)
	if got := assignOnce(s, 1); fmt.Sprint(got) != "[x1@0]" {
		t.Fatalf("placed %v, want the head of the queue owed service kept: [x1@0]", got)
	}
	// At equal priority in the same queue, the fresh task goes first.
	s = busyPair()
	s.Enqueue(&Task{ID: "h", Cores: 1, Priority: 5, Inputs: []string{"a"}}, 0)
	s.Enqueue(&Task{ID: "u", Cores: 1, Priority: 5, Inputs: []string{"b"}}, 0)
	if got := assignOnce(s, 1); fmt.Sprint(got) != "[u@0]" {
		t.Fatalf("placed %v, want [u@0]", got)
	}
}

func TestPassedOverHeadPlacedWhenHolderFrees(t *testing.T) {
	s := busyPair()
	s.Enqueue(task("h", 1, "a"), 10)
	s.Enqueue(task("u1", 1, "b"), 20)
	s.Enqueue(task("u2", 1, "c"), 30)
	if got := assignOnce(s, 100); fmt.Sprint(got) != "[u1@0]" {
		t.Fatalf("placed %v, want [u1@0]", got)
	}
	s.Release(1, 1, 0)
	var wait int64
	var got []string
	s.Assign(200, func(a Assignment) {
		got = append(got, fmt.Sprintf("%s@%d", a.Task.ID, a.Worker))
		if a.Task.ID == "h" {
			wait = a.Wait
		}
	})
	if fmt.Sprint(got) != "[h@1]" || wait != 190 {
		t.Fatalf("placed %v with wait %d, want [h@1] with its original wait 190", got, wait)
	}
}

func BenchmarkAssign(b *testing.B) {
	s := New(nil)
	for i := 0; i < 32; i++ {
		s.WorkerJoin(i, 8, 0)
	}
	tasks := make([]*Task, 256)
	for i := range tasks {
		tasks[i] = task(fmt.Sprintf("t%d", i), 1, "f1", "f2")
	}
	s.Replicas().SetSize("f1", 1000)
	for i := 0; i < 32; i++ {
		s.Replicas().Add("f1", i)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, tk := range tasks {
			s.Enqueue(tk, int64(n))
		}
		s.Assign(int64(n), func(a Assignment) {
			s.Release(a.Worker, a.Task.Cores, a.Task.Memory)
		})
	}
}

// ---- queue deprovisioning ----

func TestRemoveQueue(t *testing.T) {
	s := New(nil, QueueConfig{Name: "tenant:a", Weight: 2})
	// Protected names.
	if s.RemoveQueue("") || s.RemoveQueue(DefaultQueue) {
		t.Fatal("removed a protected queue")
	}
	if s.RemoveQueue("nope") {
		t.Fatal("removed a queue that does not exist")
	}
	// A queue with live work is kept.
	tk := task("t1", 1)
	tk.Queue = "tenant:a"
	s.WorkerJoin(0, 4, 0)
	s.Enqueue(tk, 0)
	if s.RemoveQueue("tenant:a") {
		t.Fatal("removed a queue with pending work")
	}
	// Drained, it goes away — and disappears from the stats snapshot.
	s.Assign(0, func(a Assignment) {})
	if !s.RemoveQueue("tenant:a") {
		t.Fatal("could not remove a drained queue")
	}
	for _, q := range s.Queues() {
		if q.Name == "tenant:a" {
			t.Fatal("removed queue still in stats")
		}
	}
	// Re-enqueueing under the same name recreates it fresh at weight 1.
	tk2 := task("t2", 1)
	tk2.Queue = "tenant:a"
	s.Enqueue(tk2, 0)
	for _, q := range s.Queues() {
		if q.Name == "tenant:a" && q.Weight != 1 {
			t.Fatalf("recreated queue weight = %v", q.Weight)
		}
	}
	// A tombstoned (dequeued) task does not pin the queue.
	s.Dequeue("t2")
	if !s.RemoveQueue("tenant:a") {
		t.Fatal("tombstone pinned the queue")
	}
}

// ---- elasticity: preemption-aware placement (PR 9) ----

func TestDrainFilterExcludesDrainingWorkers(t *testing.T) {
	f := DrainFilter{}
	if f.Keep(task("t", 1), &Candidate{ID: 1, Draining: true}) {
		t.Error("kept a draining worker")
	}
	if !f.Keep(task("t", 1), &Candidate{ID: 2, Preemptible: true}) {
		t.Error("dropped a merely-preemptible worker; only draining ones are excluded")
	}
}

func TestStabilityBreaksLocalityTies(t *testing.T) {
	// Equal local bytes: the stable worker must win over the preemptible
	// one even when the preemptible worker has more free cores — stability
	// ranks above FreeCores in the Locality score vector.
	p := Locality()
	cands := []Candidate{
		{ID: 1, FreeCores: 8, LocalBytes: 50, Preemptible: true},
		{ID: 2, FreeCores: 2, LocalBytes: 50},
	}
	idx, _ := p.Pick(task("t", 1, "a"), cands)
	if cands[idx].ID != 2 {
		t.Fatalf("picked worker %d, want stable worker 2", cands[idx].ID)
	}
	// ...but locality still dominates stability: a preemptible worker
	// holding more of the inputs beats a stable one holding less.
	cands = []Candidate{
		{ID: 1, FreeCores: 2, LocalBytes: 90, Preemptible: true},
		{ID: 2, FreeCores: 8, LocalBytes: 10},
	}
	idx, _ = p.Pick(task("t", 1, "a"), cands)
	if cands[idx].ID != 1 {
		t.Fatalf("picked worker %d, want data-local worker 1", cands[idx].ID)
	}
}

func TestStockPoliciesFilterDraining(t *testing.T) {
	for _, p := range []*Policy{Locality(), BinPack(), Spread(), Random(7)} {
		cands := []Candidate{
			{ID: 1, FreeCores: 8, Draining: true},
			{ID: 2, FreeCores: 8},
		}
		idx, _ := p.Pick(task("t", 1), cands)
		if idx == -1 || cands[idx].ID != 2 {
			t.Fatalf("%s: picked draining worker (idx=%d)", p.Name, idx)
		}
		// A pool that is all-draining is infeasible for new work.
		idx, _ = p.Pick(task("t", 1), []Candidate{{ID: 1, FreeCores: 8, Draining: true}})
		if idx != -1 {
			t.Fatalf("%s: placed work on a draining-only pool", p.Name)
		}
	}
}

func TestSchedulerWorkerAttrsRoundTrip(t *testing.T) {
	s := New(Locality())
	s.WorkerJoin(1, 4, 0)
	pre, dr := s.WorkerAttrs(1)
	if pre || dr {
		t.Fatalf("fresh worker attrs = (%v, %v), want stable and not draining", pre, dr)
	}
	s.SetWorkerAttrs(1, true, false)
	if pre, dr = s.WorkerAttrs(1); !pre || dr {
		t.Fatalf("attrs after SetWorkerAttrs(true,false) = (%v, %v)", pre, dr)
	}
	s.SetWorkerAttrs(1, true, true)
	// A draining worker must stop receiving assignments entirely.
	s.Enqueue(task("t1", 1), 0)
	var placed []Assignment
	if n := s.Assign(0, func(a Assignment) { placed = append(placed, a) }); n != 0 {
		t.Fatalf("assigned %d tasks to a draining-only pool", n)
	}
	s.WorkerJoin(2, 4, 0)
	if n := s.Assign(0, func(a Assignment) { placed = append(placed, a) }); n != 1 {
		t.Fatalf("assigned %d tasks, want 1 once a stable worker joins", n)
	}
	if len(placed) != 1 || placed[0].Worker != 2 {
		t.Fatalf("assignments = %+v, want t1 on the fresh stable worker 2", placed)
	}
}
