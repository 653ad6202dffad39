package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/obs"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

// dv3 is the paper's application end to end: a seeded dataset on disk,
// partitioned into chunks, lowered to a map + tree-reduce graph, run through
// daskvine on 2 workers x 1 core with peer transfers, compared bin for bin
// with the serial coffea.RunLocal.
type dv3 struct {
	events  int
	paths   []string
	chunks  []coffea.Chunk
	graph   *dag.Graph
	root    dag.Key
	want    *coffea.HistSet
	serial  time.Duration
	buildMs float64
}

// Exactly the columns DV3Processor.Process reads, by how it reads them.
var (
	dv3Jagged = []string{"Jet_pt", "Jet_eta", "Jet_phi", "Jet_mass", "Jet_btagDeepB"}
	dv3Flat   = []string{"MET_pt", "genWeight"}
)

func (d *dv3) prepare(e *env) error {
	apps.RegisterProcessors()
	files, perFile := e.scaled(10, 2), e.scaled(20000, 2000)
	d.events = files * perFile
	dir, err := e.freshDir("dv3-data")
	if err != nil {
		return err
	}
	sp := e.tr.begin("rootio.WriteDataset", 0, "dv3")
	d.paths, err = rootio.WriteDataset(dir, rootio.DatasetSpec{
		Name: "JetHT", Files: files, EventsPerFile: perFile,
		Gen: rootio.GenOptions{Seed: uint64(e.seed), MeanJets: 5},
	})
	sp.end()
	if err != nil {
		return err
	}
	infos := make([]coffea.FileInfo, len(d.paths))
	for i, p := range d.paths {
		infos[i] = coffea.FileInfo{Path: p, NEvents: int64(perFile)}
	}
	if d.chunks, err = coffea.Partition("JetHT", infos, int64(perFile)/4); err != nil {
		return err
	}
	t0 := time.Now()
	d.graph, d.root, err = coffea.BuildGraph("dv3", d.chunks, coffea.GraphOptions{FanIn: 4})
	d.buildMs = ms(int64(time.Since(t0)))
	if err != nil {
		return err
	}
	// The serial ground truth every round is compared with; its wall time
	// is the plain serial baseline.
	t0 = time.Now()
	d.want, err = coffea.RunLocal(apps.DV3Processor{}, d.chunks)
	d.serial = time.Since(t0)
	return err
}

func (d *dv3) shape() map[string]any {
	return map[string]any{"events": d.events, "files": len(d.paths), "chunks": len(d.chunks),
		"tasks": d.graph.Len(), "fan_in": 4, "workers": 2, "cores_per_worker": 1}
}

func (d *dv3) run(e *env, traced bool) (round, error) {
	var r round
	dir, err := e.freshDir("dv3")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	rec, recEpoch := newRecorder(traced)
	var graphRec *obs.Recorder
	var graphEpoch time.Time
	if traced {
		graphRec, graphEpoch = newRecorder(true)
	}

	// The traced library times the reads and the merges from inside the
	// task; the untraced one is daskvine's own.
	lib := daskvine.NewLibrary(0)
	if traced {
		lib = tracedCoffeaLibrary(e.tr)
	}
	if err := vine.RegisterLibrary(lib); err != nil {
		return r, err
	}
	c, err := startCluster(dir, 2, 1, rec, []vine.Option{
		vine.WithPeerTransfers(true), vine.WithLibrary(daskvine.LibraryName, true),
	})
	if err != nil {
		return r, err
	}
	defer c.stop()

	var mu sync.Mutex
	closed := false
	doneAt := map[int]time.Time{}
	var rootDone time.Time
	onDone := func(k dag.Key, h *vine.TaskHandle) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		doneAt[h.ID] = now
		if k == d.root {
			rootDone = now
		}
		// Everything is submitted up front, so queue wait belongs to the
		// makespan; a task's latency is its turnaround once dispatched.
		if fd := h.FirstDispatch(); !fd.IsZero() {
			r.latencyMs = append(r.latencyMs, ms(int64(now.Sub(fd))))
		}
		if h.Err() != nil {
			r.fail("task error", 1)
		}
	}

	root := e.tr.begin("round", 0, "dv3")
	e.tr.round.Store(root.id)
	m := startMeter(traced)
	sp := e.tr.begin("daskvine.Run", root.id, "dv3")
	runStart := time.Now()
	got, err := daskvine.Run(c.mgr, d.graph, d.root, daskvine.Options{
		Timeout: 5 * time.Minute, OnTaskDone: onDone, Recorder: graphRec,
	})
	runEnd := time.Now()
	sp.end()
	m.stop(&r)
	root.end()
	if err != nil {
		return r, err
	}
	r.work, r.tasks = float64(d.events), d.graph.Len()
	r.heapMB = retainedHeapMB()

	// Run stops its callbacks when it returns, so the last few tasks may
	// go unobserved; a task that failed would have failed Run itself.
	mu.Lock()
	closed = true
	mu.Unlock()
	r.attempted = d.graph.Len() + 1
	if !sameHists(d.want, got) {
		r.fail("histograms differ from RunLocal", 1)
	}

	if traced {
		r.layer = map[string]float64{}
		events := rec.Events()
		var execTotal time.Duration
		for _, ev := range events {
			if ev.Type == obs.EvTaskDone {
				execTotal += ev.Dur
			}
		}
		foldStages(events, recEpoch, doneAt, r.layer)
		foldTransfers(events, nil, r.wall, r.layer)
		total, self := spanTotals(e.tr.take())
		body := time.Duration(total["task.process"] + total["task.accumulate"])
		foldControl(&r, body, c.mgr.Stats(), r.layer)
		r.layer["apps.kernel_rootio_task_share"] = ratio(float64(self["task.process"]+total["rootio.read"]), float64(execTotal))
		var lastSubmit time.Duration
		for _, ev := range graphRec.Events() {
			if ev.Type == obs.EvTaskSubmit && ev.T > lastSubmit {
				lastSubmit = ev.T
			}
		}
		r.layer["daskvine.submit_ms"] = ms(int64(lastSubmit - runStart.Sub(graphEpoch)))
		if !rootDone.IsZero() {
			r.layer["daskvine.fetch_result_ms"] = ms(int64(runEnd.Sub(rootDone)))
		}
	}
	return r, nil
}

// sameHists is the bin-for-bin check of examples/dv3.
func sameHists(want, got *coffea.HistSet) bool {
	if got == nil || len(got.H) != len(want.H) {
		return false
	}
	for _, name := range want.Names() {
		wh, gh := want.H[name], got.H[name]
		if gh == nil || len(gh.Counts) != len(wh.Counts) {
			return false
		}
		for i := range wh.Counts {
			if math.Abs(wh.Counts[i]-gh.Counts[i]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// timingReader is the coffea.ColumnReader the traced library reads through:
// every read is a rootio.read span under the task's process span, so the
// process span's self time is the kernel's.
type timingReader struct {
	rd     coffea.ColumnReader
	tr     *tracer
	parent int64
	req    string
}

func (t timingReader) NEvents() int64 { return t.rd.NEvents() }

func (t timingReader) ReadFlat(name string, lo, hi int64) ([]float64, error) {
	sp := t.tr.begin("rootio.read", t.parent, t.req)
	defer sp.end()
	return t.rd.ReadFlat(name, lo, hi)
}

func (t timingReader) ReadJagged(name string, lo, hi int64) (rootio.Jagged, error) {
	sp := t.tr.begin("rootio.read", t.parent, t.req)
	defer sp.end()
	return t.rd.ReadJagged(name, lo, hi)
}

// tracedCoffeaLibrary is the benchmark's own "coffea" library: the same two
// functions as daskvine.NewLibrary, with spans at the layer boundaries.
func tracedCoffeaLibrary(tr *tracer) *vine.Library {
	return &vine.Library{
		Name: daskvine.LibraryName,
		Funcs: map[string]vine.Function{
			"process": func(c *vine.Call) error {
				var args struct {
					Processor string `json:"processor"`
					Dataset   string `json:"dataset"`
					Lo        int64  `json:"lo"`
					Hi        int64  `json:"hi"`
				}
				if err := json.Unmarshal(c.Args, &args); err != nil {
					return err
				}
				p, err := coffea.Lookup(args.Processor)
				if err != nil {
					return err
				}
				path, err := c.InputPath("data")
				if err != nil {
					return err
				}
				req := fmt.Sprintf("%s[%d,%d)", filepath.Base(path), args.Lo, args.Hi)
				sp := tr.inTask("task.process", req)
				defer sp.end()
				rd, closer, err := rootio.Open(path)
				if err != nil {
					return err
				}
				defer closer.Close()
				hs, err := coffea.ProcessChunkFrom(p, timingReader{rd, tr, sp.id, req},
					coffea.Chunk{Dataset: args.Dataset, Path: path, Lo: args.Lo, Hi: args.Hi})
				if err != nil {
					return err
				}
				c.SetOutput("hist", hs.Marshal())
				return nil
			},
			"accumulate": func(c *vine.Call) error {
				sp := tr.inTask("task.accumulate", "")
				defer sp.end()
				acc := coffea.NewHistSet()
				for _, name := range c.InputNames() {
					blob, err := c.Input(name)
					if err != nil {
						return err
					}
					un := tr.begin("hist.unmarshal", sp.id, "")
					hs, err := coffea.UnmarshalHistSet(blob)
					un.end()
					if err != nil {
						return err
					}
					add := tr.begin("hist.add", sp.id, "")
					err = acc.Add(hs)
					add.end()
					if err != nil {
						return err
					}
				}
				ma := tr.begin("hist.marshal", sp.id, "")
				c.SetOutput("hist", acc.Marshal())
				ma.end()
				return nil
			},
		},
	}
}
