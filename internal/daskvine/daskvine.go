// Package daskvine bridges the DAG-manager layer to the live TaskVine
// engine, the role the DaskVine module plays in the paper (§IV.C): it
// "converts the nodes of a Dask graph into task and file submissions to the
// TaskVine scheduler".
//
// A coffea analysis graph (ProcessSpec / AccumSpec payloads) is lowered to
// vine tasks: dataset files are declared as shared-storage files, which
// costs the manager one stat each, and processor tasks read their chunk in
// place from that storage, as the paper's tasks read their datasets from
// HDFS and VAST (§IV.A). A worker that cannot see the path gets the file by
// transfer instead. Accumulation tasks merge HistSet blobs that move
// between workers by peer transfer and never leave the cluster until the
// root result is fetched.
package daskvine

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/obs"
	"hepvine/internal/vine"
)

// LibraryName is the serverless library hosting the coffea functions.
const LibraryName = "coffea"

// procArgs is the wire form of a processor invocation.
type procArgs struct {
	Processor string `json:"processor"`
	Dataset   string `json:"dataset"`
	Lo        int64  `json:"lo"`
	Hi        int64  `json:"hi"`
}

// libState is the "imported environment" of the coffea library. Building it
// is what import hoisting amortizes.
type libState struct {
	ready bool
}

// NewLibrary builds the coffea library definition. setupDelay models the
// cost of the environment construction (Python imports in the paper);
// register the result with vine.RegisterLibrary in every process that runs
// a manager or worker.
func NewLibrary(setupDelay time.Duration) *vine.Library {
	return &vine.Library{
		Name:       LibraryName,
		SetupDelay: setupDelay,
		Setup:      func() (any, error) { return &libState{ready: true}, nil },
		Funcs: map[string]vine.Function{
			"process":    processFunc,
			"accumulate": accumulateFunc,
		},
	}
}

// processFunc runs a registered coffea processor over one chunk of the
// file that is the task input "data".
func processFunc(c *vine.Call) error {
	if st, ok := c.State().(*libState); !ok || !st.ready {
		return fmt.Errorf("daskvine: library state not initialized")
	}
	var args procArgs
	if err := json.Unmarshal(c.Args, &args); err != nil {
		return fmt.Errorf("daskvine: bad process args: %w", err)
	}
	p, err := coffea.Lookup(args.Processor)
	if err != nil {
		return err
	}
	path, err := c.InputPath("data")
	if err != nil {
		return err
	}
	hs, err := coffea.ProcessChunk(p, coffea.Chunk{
		Dataset: args.Dataset, Path: path, Lo: args.Lo, Hi: args.Hi,
	})
	if err != nil {
		return err
	}
	c.SetOutput("hist", hs.Marshal())
	return nil
}

// accumulateFunc merges every input HistSet blob.
func accumulateFunc(c *vine.Call) error {
	if st, ok := c.State().(*libState); !ok || !st.ready {
		return fmt.Errorf("daskvine: library state not initialized")
	}
	acc := coffea.NewHistSet()
	for _, name := range c.InputNames() {
		blob, err := c.Input(name)
		if err != nil {
			return err
		}
		hs, err := coffea.UnmarshalHistSet(blob)
		if err != nil {
			return fmt.Errorf("daskvine: input %s: %w", name, err)
		}
		if err := acc.Add(hs); err != nil {
			return err
		}
	}
	c.SetOutput("hist", acc.Marshal())
	return nil
}

// Options shape graph execution.
type Options struct {
	// Mode selects standard tasks or serverless function calls
	// ("task_mode" in Fig. 4). Default ModeFunctionCall.
	Mode vine.TaskMode
	// Timeout bounds the whole run; 0 means no limit.
	Timeout time.Duration
	// OnTaskDone, if set, is called after each task completes.
	OnTaskDone func(key dag.Key, h *vine.TaskHandle)
	// Recorder, if set, receives one EvTaskSubmit per graph node keyed
	// by its dag key, with Detail linking it to the vine task id — the
	// join between graph-level and engine-level traces.
	Recorder *obs.Recorder
}

// Run executes a coffea analysis graph on the live engine and returns the
// HistSet produced by the root task.
func Run(m *vine.Manager, g *dag.Graph, root dag.Key, opts Options) (*coffea.HistSet, error) {
	if opts.Mode == "" {
		opts.Mode = vine.ModeFunctionCall
	}
	if !g.Finalized() {
		return nil, fmt.Errorf("daskvine: graph not finalized")
	}
	if g.Task(root) == nil {
		return nil, fmt.Errorf("daskvine: root %q not in graph", root)
	}

	// Each dataset file is declared once, on first use; identical paths
	// share a cachename.
	decls := make(map[string]vine.CacheName)
	// Submit in topological order so every input cachename is known.
	handles := make(map[dag.Key]*vine.TaskHandle, g.Len())
	// Every OnTaskDone for a node that completed before Run returns is
	// delivered before Run returns: the watchers re-check their handle
	// after done closes, and Run waits for them all.
	done := make(chan struct{})
	var watchers sync.WaitGroup
	defer func() {
		close(done)
		watchers.Wait()
	}()
	for _, k := range g.Topo() {
		task := g.Task(k)
		var vt vine.Task
		switch spec := task.Spec.(type) {
		case *coffea.ProcessSpec:
			cn, ok := decls[spec.Chunk.Path]
			if !ok {
				abs, err := filepath.Abs(spec.Chunk.Path)
				if err == nil {
					cn, err = m.DeclareSharedFile(abs)
				}
				if err != nil {
					return nil, fmt.Errorf("daskvine: declaring %s: %w", spec.Chunk.Path, err)
				}
				decls[spec.Chunk.Path] = cn
			}
			args, err := json.Marshal(procArgs{
				Processor: spec.Processor,
				Dataset:   spec.Chunk.Dataset,
				Lo:        spec.Chunk.Lo,
				Hi:        spec.Chunk.Hi,
			})
			if err != nil {
				return nil, err
			}
			vt = vine.Task{
				Mode: opts.Mode, Library: LibraryName, Func: "process",
				Args:    args,
				Inputs:  []vine.FileRef{{Name: "data", CacheName: cn}},
				Outputs: []string{"hist"},
			}
		case *coffea.AccumSpec:
			vt = vine.Task{
				Mode: opts.Mode, Library: LibraryName, Func: "accumulate",
				Outputs: []string{"hist"},
			}
			for i, d := range task.Deps {
				dh := handles[d]
				if dh == nil {
					return nil, fmt.Errorf("daskvine: dependency %q submitted out of order", d)
				}
				cn, ok := dh.Output("hist")
				if !ok {
					return nil, fmt.Errorf("daskvine: dependency %q has no hist output", d)
				}
				vt.Inputs = append(vt.Inputs, vine.FileRef{
					Name: fmt.Sprintf("in%d", i), CacheName: cn,
				})
			}
		default:
			return nil, fmt.Errorf("daskvine: task %q has unsupported spec %T", k, task.Spec)
		}
		h, err := m.Submit(vt)
		if err != nil {
			return nil, fmt.Errorf("daskvine: submitting %q: %w", k, err)
		}
		handles[k] = h
		opts.Recorder.Emit(obs.Event{
			Type: obs.EvTaskSubmit, Task: string(k),
			Detail: "vine:" + strconv.Itoa(h.ID),
		})
		// Resubmission is idempotent against a journal-resumed manager:
		// dataset declarations keep their names while the files are
		// unchanged, and task definition hashes are content-addressed, so
		// a node that already completed in a prior incarnation dedupes to
		// its done handle and the run skips straight to whatever merge work
		// is genuinely missing. Surface the join between the dag key and
		// the warm decision in the graph trace.
		if h.WarmHit() {
			opts.Recorder.Emit(obs.Event{
				Type: obs.EvWarmHit, Task: string(k),
				Detail: "vine:" + strconv.Itoa(h.ID),
			})
		}
		if opts.OnTaskDone != nil {
			key, hh := k, h
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				select {
				case <-hh.Done():
				case <-done:
					select {
					case <-hh.Done():
					default:
						return
					}
				}
				opts.OnTaskDone(key, hh)
			}()
		}
	}

	rootH := handles[root]
	if err := rootH.Wait(opts.Timeout); err != nil {
		return nil, err
	}
	cn, _ := rootH.Output("hist")
	// FetchBytes recovers through worker loss: a vanished last replica
	// triggers a lineage rollback of the producing task instead of an
	// error, so a preemption at the very end of a run costs a re-run of
	// the final reduce, not the whole analysis.
	blob, err := m.FetchBytes(cn)
	if err != nil {
		return nil, fmt.Errorf("daskvine: fetching result: %w", err)
	}
	return coffea.UnmarshalHistSet(blob)
}
