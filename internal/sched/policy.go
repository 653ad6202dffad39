// Package sched is the scheduling subsystem shared by both execution
// planes: the live TaskVine manager (internal/vine) and the discrete-event
// simulator (internal/vinesim). It separates *policy* — which worker should
// run a ready task — from *mechanism* — queueing, fair-share across
// tenants, and the indexed bookkeeping that keeps placement off the
// O(ready × workers × inputs) rescan path. That bookkeeping includes
// Replicas, the one table of which worker holds which file, used by both
// planes.
//
// Policies follow the k8s scheduler shape: a pipeline of Filters prunes
// infeasible workers, then a vector of Scorers ranks the survivors. Scores
// compare lexicographically (first scorer dominates, later scorers break
// ties) with a final deterministic tie-break on the lowest worker id. The
// default Locality policy reproduces the live manager's historical greedy
// placement bit-for-bit: most local input bytes, then most free cores,
// then lowest id.
package sched

import (
	"fmt"
	"hash/fnv"
)

// Task is the scheduler's view of one ready task. IDs are strings so both
// planes can use their native key types (the live engine formats its int
// ids, the simulator passes dag keys through unchanged).
type Task struct {
	ID       string
	Queue    string // submission queue (tenant); "" means the default queue
	Priority int    // higher runs first within its queue
	Cores    int
	Memory   int64    // bytes; 0 = no requirement
	Inputs   []string // cache names of required inputs, for locality scoring
	Exclude  map[int]bool

	// EnqueuedAt is the plane-relative time the task became ready, used
	// to report queue wait. The live engine passes an offset from manager
	// start; the simulator passes virtual time.
	EnqueuedAt int64 // nanoseconds

	seq uint64 // FIFO tie-break within equal priority, set by Enqueue
}

// Candidate is the scheduler's view of one worker at placement time.
// LocalBytes is precomputed from a replica table (Replicas.LocalBytes) so
// scorers stay O(1) field reads.
type Candidate struct {
	ID         int
	Cores      int
	FreeCores  int
	Memory     int64 // bytes; 0 = unreported
	FreeMemory int64
	LocalBytes int64 // bytes of this task's inputs already cached here

	// Preemptible marks a worker that may vanish on short notice (an
	// opportunistic slot); Draining marks one inside its grace window,
	// winding down. Both default false, so planes that never set worker
	// attributes score and filter exactly as before.
	Preemptible bool
	Draining    bool
}

// Filter prunes candidates that cannot run the task at all.
type Filter interface {
	Name() string
	Keep(t *Task, c *Candidate) bool
}

// Scorer ranks the candidates that survive filtering; higher is better.
type Scorer interface {
	Name() string
	Score(t *Task, c *Candidate) float64
}

// maxScorers bounds the score vector so Pick can compare candidates on a
// stack array with zero per-call allocation.
const maxScorers = 4

// Policy is a named Filter→Score pipeline. Scores compare
// lexicographically in scorer order; the final tie-break is the lowest
// candidate id (candidates are scanned in slice order and only a strictly
// better vector replaces the incumbent, so callers that present
// candidates in ascending id order get deterministic placement).
type Policy struct {
	Name    string
	Filters []Filter
	Scorers []Scorer
}

// Pick returns the index into cands of the chosen worker and the primary
// (first-scorer) score, or -1 if no candidate passes every filter. It
// allocates nothing.
func (p *Policy) Pick(t *Task, cands []Candidate) (int, float64) {
	if len(p.Scorers) > maxScorers {
		panic(fmt.Sprintf("sched: policy %q has %d scorers, max %d", p.Name, len(p.Scorers), maxScorers))
	}
	best := -1
	var bestVec [maxScorers]float64
	var vec [maxScorers]float64
next:
	for i := range cands {
		c := &cands[i]
		for _, f := range p.Filters {
			if !f.Keep(t, c) {
				continue next
			}
		}
		for j, s := range p.Scorers {
			vec[j] = s.Score(t, c)
		}
		if best < 0 || lexLess(bestVec[:len(p.Scorers)], vec[:len(p.Scorers)]) {
			best = i
			bestVec = vec
		}
	}
	if best < 0 {
		return -1, 0
	}
	var primary float64
	if len(p.Scorers) > 0 {
		primary = bestVec[0]
	}
	return best, primary
}

// lexLess reports whether a < b lexicographically (so b should replace a).
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ---- built-in filters ----

// FitFilter keeps workers with enough free cores, and enough free memory
// when both sides report memory (matching the live manager's historical
// check: memory is only enforced when the worker reports a limit and the
// task declares a requirement).
type FitFilter struct{}

func (FitFilter) Name() string { return "fit" }

func (FitFilter) Keep(t *Task, c *Candidate) bool {
	if c.FreeCores < t.Cores {
		return false
	}
	if c.Memory > 0 && t.Memory > 0 && c.FreeMemory < t.Memory {
		return false
	}
	return true
}

// ExcludeFilter drops workers the task has been told to avoid — the live
// engine uses it to keep speculative re-dispatches off straggler workers.
type ExcludeFilter struct{}

func (ExcludeFilter) Name() string { return "exclude" }

func (ExcludeFilter) Keep(t *Task, c *Candidate) bool {
	return !t.Exclude[c.ID]
}

// DrainFilter drops workers inside a preemption grace window: a draining
// worker finishes what it has but accepts nothing new.
type DrainFilter struct{}

func (DrainFilter) Name() string { return "drain" }

func (DrainFilter) Keep(t *Task, c *Candidate) bool {
	return !c.Draining
}

// ---- built-in scorers ----

// LocalBytesScorer prefers workers already caching the task's inputs —
// the paper's data-gravity placement.
type LocalBytesScorer struct{}

func (LocalBytesScorer) Name() string { return "local-bytes" }

func (LocalBytesScorer) Score(t *Task, c *Candidate) float64 {
	return float64(c.LocalBytes)
}

// FreeCoresScorer prefers the emptiest worker (spread).
type FreeCoresScorer struct{}

func (FreeCoresScorer) Name() string { return "free-cores" }

func (FreeCoresScorer) Score(t *Task, c *Candidate) float64 {
	return float64(c.FreeCores)
}

// StabilityScorer prefers workers that will not be preempted: 1 for a
// stable worker, 0 for a preemptible one. Constant (and therefore inert)
// on planes that never mark workers preemptible, which is what keeps the
// Locality policy bit-for-bit with the historical greedy placement in
// fixed-pool runs.
type StabilityScorer struct{}

func (StabilityScorer) Name() string { return "stability" }

func (StabilityScorer) Score(t *Task, c *Candidate) float64 {
	if c.Preemptible {
		return 0
	}
	return 1
}

// PackScorer prefers the fullest worker that still fits (bin-pack):
// fewest cores left over after placement.
type PackScorer struct{}

func (PackScorer) Name() string { return "pack" }

func (PackScorer) Score(t *Task, c *Candidate) float64 {
	return -float64(c.FreeCores - t.Cores)
}

// RandomScorer hashes (seed, task, worker) so placement is uniform but
// reproducible for a given seed — the paper-style random baseline.
type RandomScorer struct{ Seed uint64 }

func (RandomScorer) Name() string { return "random" }

func (r RandomScorer) Score(t *Task, c *Candidate) float64 {
	h := fnv.New64a()
	var b [8]byte
	putU64(&b, r.Seed)
	h.Write(b[:])
	h.Write([]byte(t.ID))
	putU64(&b, uint64(c.ID))
	h.Write(b[:])
	return float64(h.Sum64() >> 11) // 53 significant bits fit a float64 exactly
}

func putU64(b *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ---- stock policies ----

// Locality is the default policy: the data-gravity greedy placement
// extracted from the live manager. Most local input bytes, tie-break
// stable over preemptible, tie-break most free cores, tie-break lowest
// worker id. On a pool with no preemptible workers the stability term is
// constant, so placement stays bit-for-bit the historical greedy.
func Locality() *Policy {
	return &Policy{
		Name:    "locality",
		Filters: []Filter{FitFilter{}, ExcludeFilter{}, DrainFilter{}},
		Scorers: []Scorer{LocalBytesScorer{}, StabilityScorer{}, FreeCoresScorer{}},
	}
}

// BinPack fills workers before opening new ones, preferring local data
// among equally full workers. Useful when idle workers can be reclaimed.
func BinPack() *Policy {
	return &Policy{
		Name:    "binpack",
		Filters: []Filter{FitFilter{}, ExcludeFilter{}, DrainFilter{}},
		Scorers: []Scorer{PackScorer{}, LocalBytesScorer{}},
	}
}

// Spread levels load across workers, preferring local data among equally
// loaded workers.
func Spread() *Policy {
	return &Policy{
		Name:    "spread",
		Filters: []Filter{FitFilter{}, ExcludeFilter{}, DrainFilter{}},
		Scorers: []Scorer{FreeCoresScorer{}, LocalBytesScorer{}},
	}
}

// Random is the uniform baseline the paper compares against: any feasible
// worker, chosen by seeded hash.
func Random(seed uint64) *Policy {
	return &Policy{
		Name:    "random",
		Filters: []Filter{FitFilter{}, ExcludeFilter{}, DrainFilter{}},
		Scorers: []Scorer{RandomScorer{Seed: seed}},
	}
}

// Federate is the root-side policy of a two-level federation: the
// "workers" it places onto are foremen, each summarizing a whole shard.
// Locality still leads — a shard already caching the inputs avoids a
// cross-shard peer transfer — but the tie-break is free capacity, which
// at shard granularity is a backlog signal: leases flow to the least
// loaded shard. No stability term: foremen are not preemptible.
func Federate() *Policy {
	return &Policy{
		Name:    "federate",
		Filters: []Filter{FitFilter{}, ExcludeFilter{}, DrainFilter{}},
		Scorers: []Scorer{LocalBytesScorer{}, FreeCoresScorer{}},
	}
}

// ByName resolves a policy by its registry name. The seed only affects
// the random policy.
func ByName(name string, seed uint64) (*Policy, error) {
	switch name {
	case "", "locality":
		return Locality(), nil
	case "binpack":
		return BinPack(), nil
	case "spread":
		return Spread(), nil
	case "random":
		return Random(seed), nil
	case "federate":
		return Federate(), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, Names())
}

// Names lists the stock policies in presentation order: the default
// first, then the alternatives.
func Names() []string {
	return []string{"locality", "binpack", "spread", "random", "federate"}
}
