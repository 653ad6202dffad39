// Package core is the simulation plane's vocabulary: the workload types
// shared by the application models (internal/apps) and the simulator
// (internal/vinesim) — SimSpec task payloads and Workload bundles — plus
// the simulator's peer-transfer governor. The replica table and placement
// policies both planes share live in internal/sched.
package core

import (
	"fmt"
	"time"

	"hepvine/internal/dag"
	"hepvine/internal/storage"
	"hepvine/internal/units"
)

// ---- peer-transfer governor ----

// TransferRequest asks for file f to be copied to node Dest.
type TransferRequest struct {
	File storage.FileID
	Dest int
}

// Governor caps concurrent outbound transfers per source node (§IV.B: "the
// manager manages the number of concurrent peer transfers that a worker may
// perform"). Requests that cannot start immediately are queued and retried
// whenever a source frees up.
type Governor struct {
	Cap int

	outbound map[int]int
	queue    []*govRequest
}

type govRequest struct {
	req    TransferRequest
	choose func(maxLoad int) int
	start  func(source int)
}

// NewGovernor returns a governor with the given per-source cap (<=0 means
// uncapped).
func NewGovernor(cap int) *Governor {
	return &Governor{Cap: cap, outbound: make(map[int]int)}
}

// Outbound reports a node's active outbound transfers.
func (g *Governor) Outbound(node int) int { return g.outbound[node] }

// QueueLen reports deferred transfers.
func (g *Governor) QueueLen() int { return len(g.queue) }

// Request asks to transfer req.File to req.Dest. choose must return the
// preferred source node whose load is below maxLoad, or a negative value if
// none qualifies right now (the request queues and is retried on Done).
// start is invoked — possibly later — with the granted source.
func (g *Governor) Request(req TransferRequest, choose func(maxLoad int) int, start func(source int)) {
	gr := &govRequest{req: req, choose: choose, start: start}
	if !g.tryStart(gr) {
		g.queue = append(g.queue, gr)
	}
}

func (g *Governor) tryStart(gr *govRequest) bool {
	maxLoad := g.Cap
	if maxLoad <= 0 {
		maxLoad = 1 << 30
	}
	src := gr.choose(maxLoad)
	if src < 0 {
		return false
	}
	g.outbound[src]++
	gr.start(src)
	return true
}

// Done releases one outbound slot on source and retries queued requests.
func (g *Governor) Done(source int) {
	if g.outbound[source] > 0 {
		g.outbound[source]--
	}
	var still []*govRequest
	for _, gr := range g.queue {
		if !g.tryStart(gr) {
			still = append(still, gr)
		}
	}
	g.queue = still
}

// ---- workload vocabulary ----

// SimSpec is the simulation-plane payload of a dag.Task: what the task
// costs rather than what it computes.
type SimSpec struct {
	// Compute is the pure user-code execution time on one core.
	Compute time.Duration
	// Inputs lists dataset files read from shared storage (task outputs
	// are implied by graph dependencies).
	Inputs []storage.FileID
	// OutputSize is the bytes the task's output occupies.
	OutputSize units.Bytes
}

// OutputFileID names the output file of a graph task.
func OutputFileID(k dag.Key) storage.FileID {
	return storage.FileID("out:" + string(k))
}

// Workload bundles a simulation graph with its external dataset files.
type Workload struct {
	Name  string
	Graph *dag.Graph
	Root  dag.Key
	// DatasetFiles maps external input files to their sizes; they live on
	// the shared filesystem at t=0.
	DatasetFiles map[storage.FileID]units.Bytes
}

// InputBytes totals the dataset size.
func (w *Workload) InputBytes() units.Bytes {
	var total units.Bytes
	for _, s := range w.DatasetFiles {
		total += s
	}
	return total
}

// TaskCount reports graph size.
func (w *Workload) TaskCount() int { return w.Graph.Len() }

// TotalCompute sums every task's compute time (core-seconds of real work).
func (w *Workload) TotalCompute() time.Duration {
	var total time.Duration
	for _, k := range w.Graph.Keys() {
		if spec, ok := w.Graph.Task(k).Spec.(*SimSpec); ok {
			total += spec.Compute
		}
	}
	return total
}

// Validate checks that every task carries a SimSpec and every referenced
// dataset file is declared.
func (w *Workload) Validate() error {
	if !w.Graph.Finalized() {
		return fmt.Errorf("core: workload %q graph not finalized", w.Name)
	}
	if w.Graph.Task(w.Root) == nil {
		return fmt.Errorf("core: workload %q root %q missing", w.Name, w.Root)
	}
	for _, k := range w.Graph.Keys() {
		spec, ok := w.Graph.Task(k).Spec.(*SimSpec)
		if !ok {
			return fmt.Errorf("core: task %q lacks a SimSpec", k)
		}
		for _, f := range spec.Inputs {
			if _, ok := w.DatasetFiles[f]; !ok {
				return fmt.Errorf("core: task %q reads undeclared dataset file %q", k, f)
			}
		}
		if spec.Compute < 0 || spec.OutputSize < 0 {
			return fmt.Errorf("core: task %q has negative cost", k)
		}
	}
	return nil
}
