package sched

import "sort"

// DefaultQueue is where tasks land when they name no queue.
const DefaultQueue = "default"

// lookaheadWindow bounds how many tasks behind its queue's head Assign
// scans when the head's inputs live on another worker than the one it was
// given: delay scheduling (Zaharia et al., EuroSys 2010) over a fixed
// window instead of a timer.
const lookaheadWindow = 32

// Assignment is one placement decision handed to the caller's place
// callback. The caller owns the actual dispatch; the Scheduler has
// already reserved the cores/memory in its own index.
type Assignment struct {
	Task   *Task
	Worker int
	Queue  string
	Score  float64 // the winning candidate's primary (first-scorer) score
	Wait   int64   // ns the task spent queued before this decision
}

// node is the scheduler's capacity index for one worker.
type node struct {
	id          int
	cores       int
	freeCores   int
	memory      int64
	freeMemory  int64
	preemptible bool // opportunistic slot: may vanish on short notice
	draining    bool // inside a preemption grace window
}

// Scheduler owns the ready set, the worker index and the replica table
// for one plane. It is not goroutine-safe: the live manager calls it
// under its own mutex, the simulator is single-threaded.
type Scheduler struct {
	policy *Policy
	queues map[string]*queue
	order  []string // queue creation order, for stable stats/iteration
	nodes  map[int]*node
	ids    []int // sorted worker ids, maintained at join/lost (no per-task sort)
	reps   *Replicas
	queued map[string]*Task
	nseq   uint64

	cands   []Candidate  // scratch, reused across Assign calls
	one     [1]Candidate // scratch: the given worker, scored for a lookahead task
	blocked []*Task      // scratch: popped but unplaceable this round
	ahead   []*Task      // scratch: popped by one lookahead scan
}

// New builds a scheduler around a policy (nil means Locality) with the
// given tenant queues. The default queue always exists with weight 1
// unless overridden.
func New(policy *Policy, queues ...QueueConfig) *Scheduler {
	if policy == nil {
		policy = Locality()
	}
	s := &Scheduler{
		policy: policy,
		queues: make(map[string]*queue),
		nodes:  make(map[int]*node),
		reps:   NewReplicas(),
		queued: make(map[string]*Task),
	}
	s.AddQueue(QueueConfig{Name: DefaultQueue, Weight: 1})
	for _, qc := range queues {
		s.AddQueue(qc)
	}
	return s
}

// Policy reports the active policy.
func (s *Scheduler) Policy() *Policy { return s.policy }

// AddQueue registers or reconfigures a tenant queue.
func (s *Scheduler) AddQueue(qc QueueConfig) {
	name := qc.Name
	if name == "" {
		name = DefaultQueue
	}
	if q, ok := s.queues[name]; ok {
		if qc.Weight > 0 {
			q.weight = qc.Weight
		}
		return
	}
	s.queues[name] = newQueue(name, qc.Weight)
	s.order = append(s.order, name)
}

// RemoveQueue drops a tenant queue, provided it holds no live ready work
// (a queue with pending tasks, and the default queue, are never removed).
// Deprovisioning a departed tenant keeps the fair-share round and the
// stats snapshot from scanning dead queues forever. Reports whether the
// queue was removed. Historical dispatch counts disappear with it; tasks
// later enqueued under the same name recreate it fresh at weight 1.
func (s *Scheduler) RemoveQueue(name string) bool {
	if name == "" || name == DefaultQueue {
		return false
	}
	q, ok := s.queues[name]
	if !ok {
		return false
	}
	if s.hasLive(q) {
		return false
	}
	delete(s.queues, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// ---- worker index ----

// WorkerJoin indexes a new worker. Joining twice resets its capacity view.
func (s *Scheduler) WorkerJoin(id, cores int, memory int64) {
	if _, ok := s.nodes[id]; !ok {
		// Insert into the sorted id slice in place — this is the
		// join-time cost that removes the per-task rebuild+sort.
		i := sort.SearchInts(s.ids, id)
		s.ids = append(s.ids, 0)
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = id
	}
	s.nodes[id] = &node{
		id: id, cores: cores, freeCores: cores,
		memory: memory, freeMemory: memory,
	}
}

// SetWorkerAttrs updates a worker's elasticity attributes. Join resets
// both to false, so the caller re-applies them on re-registration.
// Unknown workers are a no-op.
func (s *Scheduler) SetWorkerAttrs(id int, preemptible, draining bool) {
	if n, ok := s.nodes[id]; ok {
		n.preemptible = preemptible
		n.draining = draining
	}
}

// WorkerAttrs reports a worker's elasticity attributes.
func (s *Scheduler) WorkerAttrs(id int) (preemptible, draining bool) {
	if n, ok := s.nodes[id]; ok {
		return n.preemptible, n.draining
	}
	return false, false
}

// WorkerLost drops a worker from the index.
func (s *Scheduler) WorkerLost(id int) {
	if _, ok := s.nodes[id]; !ok {
		return
	}
	delete(s.nodes, id)
	i := sort.SearchInts(s.ids, id)
	if i < len(s.ids) && s.ids[i] == id {
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
}

// WorkerIDs returns the maintained ascending-sorted id slice. Callers
// must treat it as read-only and not retain it across scheduler calls.
func (s *Scheduler) WorkerIDs() []int { return s.ids }

// Reserve charges cores/memory for a placement made outside Assign
// (the live engine's replica pushes do not go through here, but tests do).
func (s *Scheduler) Reserve(worker, cores int, memory int64) {
	if n, ok := s.nodes[worker]; ok {
		n.freeCores -= cores
		n.freeMemory -= memory
	}
}

// Release returns a finished task's cores/memory to the index. Unknown
// workers (already lost) are a no-op.
func (s *Scheduler) Release(worker, cores int, memory int64) {
	if n, ok := s.nodes[worker]; ok {
		n.freeCores += cores
		if n.freeCores > n.cores {
			n.freeCores = n.cores
		}
		n.freeMemory += memory
		if n.freeMemory > n.memory {
			n.freeMemory = n.memory
		}
	}
}

// Replicas is the replica table placement reads LocalBytes from. The
// caller records every replica event on it.
func (s *Scheduler) Replicas() *Replicas { return s.reps }

// ---- ready set ----

// Enqueue makes a task ready. Re-enqueueing a task that is already
// queued is a no-op, which makes delayed-requeue timers idempotent. A
// task entering an empty queue has that queue's virtual clock clamped
// forward so an idle tenant cannot bank credit and then monopolise.
func (s *Scheduler) Enqueue(t *Task, now int64) {
	if s.queued[t.ID] == t {
		return
	}
	name := t.Queue
	if name == "" {
		name = DefaultQueue
	}
	q, ok := s.queues[name]
	if !ok {
		s.AddQueue(QueueConfig{Name: name})
		q = s.queues[name]
	}
	if len(q.heap) == 0 {
		if min, any := s.minActiveServed(); any && q.served < min {
			q.served = min
		}
	}
	s.nseq++
	t.seq = s.nseq
	t.EnqueuedAt = now
	s.queued[t.ID] = t
	q.push(t)
}

// minActiveServed is the smallest virtual clock among queues with work.
func (s *Scheduler) minActiveServed() (float64, bool) {
	min, any := 0.0, false
	for _, q := range s.queues {
		if len(q.heap) == 0 {
			continue
		}
		if !any || q.served < min {
			min, any = q.served, true
		}
	}
	return min, any
}

// Dequeue removes a task from the ready set (it was cancelled, failed
// permanently, or won by a straggler while queued). The heap entry
// becomes a tombstone skipped at pop time.
func (s *Scheduler) Dequeue(id string) bool {
	if _, ok := s.queued[id]; !ok {
		return false
	}
	delete(s.queued, id)
	return true
}

// Pending is the number of live (non-tombstoned) ready tasks.
func (s *Scheduler) Pending() int { return len(s.queued) }

// Queues snapshots per-queue stats in creation order.
func (s *Scheduler) Queues() []QueueStats {
	out := make([]QueueStats, 0, len(s.order))
	for _, name := range s.order {
		q := s.queues[name]
		pending := 0
		for _, t := range q.heap {
			if s.queued[t.ID] == t {
				pending++
			}
		}
		out = append(out, QueueStats{
			Name: q.name, Weight: q.weight, Pending: pending,
			Dispatched: q.dispatched, WaitTotal: q.waitTotal, Served: q.served,
		})
	}
	return out
}

// ---- placement ----

// nextQueue picks the tenant owed the next dispatch: smallest virtual
// clock among queues with live work, creation order breaking ties.
func (s *Scheduler) nextQueue() *queue {
	var best *queue
	for _, name := range s.order {
		q := s.queues[name]
		if !s.hasLive(q) {
			continue
		}
		if best == nil || q.served < best.served {
			best = q
		}
	}
	return best
}

// hasLive reports whether a queue holds at least one non-tombstone task,
// discarding dead heap heads as it looks.
func (s *Scheduler) hasLive(q *queue) bool {
	for len(q.heap) > 0 {
		if s.queued[q.heap[0].ID] == q.heap[0] {
			return true
		}
		q.pop() // tombstone: dropped at the heap, already gone from queued
	}
	return false
}

// Assign drains the ready set onto workers until no queued task fits
// anywhere, invoking place once per decision, and returns the number of
// placements. Cores and memory are reserved in the index as decisions
// are made, so one Assign round packs consistently without dispatches
// having landed yet. When the worker picked for a queue's head has none of
// its inputs and another worker does, a short lookahead may place a task
// behind the head there instead (see lookahead). The hot path allocates
// nothing in steady state: the candidate buffer and the blocked and
// lookahead stashes are reused, the worker id slice is maintained
// incrementally, and score vectors live on the stack.
func (s *Scheduler) Assign(now int64, place func(Assignment)) int {
	placed := 0
	maxFree := s.maxFreeCores()
	s.blocked = s.blocked[:0]
	for {
		if maxFree <= 0 {
			// Cluster saturated: every task needs at least one core, so
			// nothing can place. Ending the round here leaves the heap
			// intact — draining thousands of queued tasks through the
			// blocked stash just to push them back made each Assign call
			// on a busy manager linear in backlog size.
			break
		}
		q := s.nextQueue()
		if q == nil {
			break
		}
		t := q.pop()
		if s.queued[t.ID] != t {
			continue // tombstone that arrived behind a live head
		}
		if t.Cores > maxFree {
			// No worker can take it this round; park it off-heap so the
			// round terminates, re-queue it when the round ends.
			s.blocked = append(s.blocked, t)
			continue
		}
		idx, score := s.policy.Pick(t, s.candidates(t))
		if idx < 0 {
			s.blocked = append(s.blocked, t)
			continue
		}
		win := s.cands[idx].ID
		if s.cands[idx].LocalBytes == 0 && s.homeElsewhere(t, win) {
			t, score = s.lookahead(q, t, score, idx)
		}
		n := s.nodes[win]
		n.freeCores -= t.Cores
		n.freeMemory -= t.Memory
		if n.freeCores+t.Cores >= maxFree {
			maxFree = s.maxFreeCores()
		}
		delete(s.queued, t.ID)
		wait := now - t.EnqueuedAt
		if wait < 0 {
			wait = 0
		}
		q.charge(t.Cores)
		q.dispatched++
		q.waitTotal += wait
		place(Assignment{Task: t, Worker: win, Queue: q.name, Score: score, Wait: wait})
		placed++
	}
	// Blocked tasks go back with their original seq and EnqueuedAt, so
	// FIFO order and measured wait both survive the failed attempt.
	for _, t := range s.blocked {
		name := t.Queue
		if name == "" {
			name = DefaultQueue
		}
		s.queues[name].push(t)
	}
	s.blocked = s.blocked[:0]
	return placed
}

// homeElsewhere reports whether a worker other than win, one that may
// still take t, holds or is receiving one of t's inputs.
func (s *Scheduler) homeElsewhere(t *Task, win int) bool {
	for _, f := range t.Inputs {
		for _, ids := range [2][]int{s.reps.Holders(f), s.reps.Receivers(f)} {
			for _, id := range ids {
				if n := s.nodes[id]; id != win && n != nil && !n.draining && !t.Exclude[id] {
					return true
				}
			}
		}
	}
	return false
}

// nowhere reports whether no worker holds or is receiving any of t's
// inputs, so placing t anywhere moves the same bytes.
func (s *Scheduler) nowhere(t *Task) bool {
	for _, f := range t.Inputs {
		if len(s.reps.Holders(f)) > 0 || len(s.reps.Receivers(f)) > 0 {
			return false
		}
	}
	return true
}

// lookahead picks what runs on cands[idx] instead of head, whose inputs
// are at home elsewhere. It scans up to lookaheadWindow live tasks behind
// head in the same queue at the same priority, and returns the first with
// local bytes on that worker, else the first whose inputs are nowhere
// yet, else head itself. Every task it passes over goes back on the heap
// with its seq and EnqueuedAt, so FIFO order and reported wait survive,
// and head stays first in line for the worker that holds its data.
func (s *Scheduler) lookahead(q *queue, head *Task, headScore float64, idx int) (*Task, float64) {
	pick, score := head, headScore
	var fresh *Task
	var freshScore float64
	s.ahead = append(s.ahead[:0], head)
	for len(s.ahead) <= lookaheadWindow && len(q.heap) > 0 && q.heap[0].Priority == head.Priority {
		u := q.pop()
		if s.queued[u.ID] != u {
			continue // tombstone
		}
		s.ahead = append(s.ahead, u)
		s.one[0] = s.cands[idx]
		s.one[0].LocalBytes = s.reps.LocalBytes(s.one[0].ID, u.Inputs)
		j, sc := s.policy.Pick(u, s.one[:])
		if j < 0 {
			continue
		}
		if s.one[0].LocalBytes > 0 {
			pick, score, fresh = u, sc, nil
			break
		}
		if fresh == nil && s.nowhere(u) {
			fresh, freshScore = u, sc
		}
	}
	if fresh != nil {
		pick, score = fresh, freshScore
	}
	for _, u := range s.ahead {
		if u != pick {
			q.push(u)
		}
	}
	s.ahead = s.ahead[:0]
	return pick, score
}

func (s *Scheduler) maxFreeCores() int {
	max := 0
	for _, id := range s.ids {
		if f := s.nodes[id].freeCores; f > max {
			max = f
		}
	}
	return max
}

// candidates fills the scratch buffer with every indexed worker in
// ascending id order, reading LocalBytes from the replica table. Filtering
// is the policy's job; the scheduler only precomputes the facts.
func (s *Scheduler) candidates(t *Task) []Candidate {
	s.cands = s.cands[:0]
	for _, id := range s.ids {
		n := s.nodes[id]
		s.cands = append(s.cands, Candidate{
			ID: id, Cores: n.cores, FreeCores: n.freeCores,
			Memory: n.memory, FreeMemory: n.freeMemory,
			LocalBytes:  s.reps.LocalBytes(id, t.Inputs),
			Preemptible: n.preemptible,
			Draining:    n.draining,
		})
	}
	return s.cands
}
