package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/vine"
)

// journalWarm is tiny-closed's load with the run journal on (fsync on,
// automatic compaction at its default): the cold phase writes the journal,
// then the manager and workers stop, a new manager replays the same journal
// over the same persistent worker caches, and resubmitting every task should
// execute nothing. It does not quite: the tasks in flight at the last
// automatic compaction lose their definition and run again (README.md, "Found
// while building"). They are counted, reported as journal.rerun_after_restart,
// and fail the round only past the window's worth the defect explains.
type journalWarm struct {
	n     int
	tasks []vine.Task
}

func (j *journalWarm) prepare(e *env) error {
	registerTickLib()
	j.n = e.scaled(6000, 200)
	j.tasks = tickTasks(fmt.Sprintf("j%d", e.seed), j.n)
	return nil
}

func (j *journalWarm) shape() map[string]any {
	return map[string]any{"n": j.n, "window": tinyWindow, "fsync": true, "workers": 2, "cores_per_worker": 2}
}

// startDurable opens the journal under dir and starts a journaled manager
// with two persistent-cache workers.
func startDurable(e *env, dir string, traced bool, parent int64) (*journal.Journal, *cluster, time.Time, error) {
	sp := e.tr.begin("journal.Open", parent, "")
	jr, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	sp.end()
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	rec, epoch := newRecorder(traced)
	// NewManager replays the journal before it listens.
	sp = e.tr.begin("vine.NewManager+journal.Replay", parent, "")
	c, err := startCluster(dir, 2, 2, rec, []vine.Option{
		vine.WithPeerTransfers(true), vine.WithLibrary(tickLib, true), vine.WithJournal(jr),
	}, vine.WithPersistentCache(true))
	sp.end()
	if err != nil {
		jr.Close()
		return nil, nil, epoch, err
	}
	return jr, c, epoch, nil
}

func (j *journalWarm) run(e *env, traced bool) (round, error) {
	var r round
	dir, err := e.freshDir("journal")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	jr, c, recEpoch, err := startDurable(e, dir, traced, 0)
	if err != nil {
		return r, err
	}

	root := e.tr.begin("round", 0, "journal-warm")
	e.tr.round.Store(root.id)
	bodyNanos.Store(0)
	tracingBodies.Store(traced)
	m := startMeter(traced)
	cold, err := runWindow(e, c.mgr, j.tasks, tinyWindow, root.id)
	coldWall := m.elapsed()
	if err != nil {
		c.stop()
		jr.Close()
		return r, err
	}
	// What the cold manager knows and retains, read with the clocks stopped.
	m.pause()
	coldEvents := c.mgr.Recorder().Events()
	coldStats, jst := c.mgr.Stats(), jr.Stats()
	heap := retainedHeapMB()
	m.resume()

	// Restart: stop everything, reopen the same journal and caches.
	c.stop()
	if err := jr.Close(); err != nil {
		return r, err
	}
	warmStart := m.elapsed()
	jr2, c2, _, err := startDurable(e, dir, false, root.id)
	if err != nil {
		return r, err
	}
	defer jr2.Close()
	defer c2.stop()
	warmHits := 0
	handles := make([]*vine.TaskHandle, j.n)
	for i, t := range j.tasks {
		sp := e.tr.begin("vine.Submit(warm)", root.id, "")
		h, err := c2.mgr.Submit(t)
		sp.end()
		if err != nil {
			return r, err
		}
		if h.WarmHit() && h.State() == vine.TaskDone {
			warmHits++
		}
		handles[i] = h
	}
	// A resubmission that was not a warm hit is running again. One timer
	// for all of them: TaskHandle.Wait would leave one behind per call.
	rerunFailed := 0
	deadline := time.After(2 * time.Minute)
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-deadline:
			return r, fmt.Errorf("task %d not done two minutes after the restart", h.ID)
		}
		if h.Err() != nil {
			rerunFailed++
		}
	}
	warmWall := m.elapsed() - warmStart
	m.stop(&r)
	tracingBodies.Store(false)
	root.end()

	// The cold phase is the rate; the round's wall covers restart and warm
	// phase too.
	r.work, r.workWall, r.tasks, r.latencyMs = float64(j.n), coldWall, j.n, cold.latencyMs
	r.heapMB = heap

	st := c2.mgr.Stats()
	checked, bad := checkTicks(c2.mgr, handles, j.tasks)
	r.attempted = 2*j.n + checked + 1
	rerun := j.n - warmHits
	r.fail("cold task error", cold.failed)
	r.fail("resubmission neither a warm hit nor run again to done", rerunFailed)
	r.fail("resubmissions run again beyond the window in flight at the last compaction", rerun-tinyWindow)
	r.fail("warm output differs", bad)
	if st.TasksDone != rerun || st.WarmHits != warmHits {
		r.fail(fmt.Sprintf("warm manager ran %d tasks with %d warm hits, the handles say %d and %d", st.TasksDone, st.WarmHits, rerun, warmHits), 1)
	}

	if traced {
		r.layer = map[string]float64{}
		foldStages(coldEvents, recEpoch, cold.doneAt, r.layer)
		foldControl(&r, time.Duration(bodyNanos.Load()), coldStats, r.layer)
		r.layer["journal.appends_per_sync"] = ratio(float64(jst.Appends), float64(jst.Syncs))
		r.layer["journal.bytes_per_task"] = ratio(float64(jst.AppendedBytes), float64(j.n))
		r.layer["journal.warm_tasks_per_s"] = ratio(float64(j.n), warmWall.Seconds())
		r.layer["journal.rerun_after_restart"] = float64(rerun)
	}
	return r, nil
}

// layers times the journal alone on task-shaped records: Append, a Sync
// after every window's worth of appends, and Replay of the result.
func (j *journalWarm) layers(e *env, out layerValues) error {
	dir, err := e.freshDir("journal-layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	n := e.scaled(2000, 100)
	var appendT, syncT time.Duration
	syncs := 0
	for i := 0; i < n; i++ {
		t := j.tasks[i%len(j.tasks)]
		recs := []journal.Record{
			{Kind: journal.KindTaskDef, TaskID: i + 1, DefHash: fmt.Sprintf("%064x", i),
				Spec:    &journal.TaskSpec{Mode: string(t.Mode), Library: t.Library, Func: t.Func, Args: t.Args, Outputs: t.Outputs, Cores: 1},
				Outputs: map[string]string{"out": fmt.Sprintf("task-%064x-out", i)}},
			{Kind: journal.KindDispatch, TaskID: i + 1, Worker: "w0"},
			{Kind: journal.KindTaskDone, TaskID: i + 1, Worker: "w0", ExecNanos: 1500,
				OutputSizes: map[string]int64{fmt.Sprintf("task-%064x-out", i): int64(len(t.Args) + 1)}},
		}
		t0 := time.Now()
		for k := range recs {
			if _, err := jr.Append(&recs[k]); err != nil {
				jr.Close()
				return err
			}
		}
		appendT += time.Since(t0)
		if (i+1)%tinyWindow == 0 {
			t0 = time.Now()
			err := jr.Sync()
			syncT += time.Since(t0)
			syncs++
			if err != nil {
				jr.Close()
				return err
			}
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	out.add("journal.append_us", ratio(float64(appendT.Nanoseconds())/1e3, float64(3*n)))
	out.add("journal.sync_ms", ratio(ms(int64(syncT)), float64(syncs)))

	jr, err = journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	defer jr.Close()
	sp := e.tr.begin("journal.Replay", 0, "")
	t0 := time.Now()
	st, err := jr.Replay(func(journal.Record) {})
	el := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	if st.Replayed != int64(3*n) {
		return fmt.Errorf("journal driver: replayed %d of %d records", st.Replayed, 3*n)
	}
	out.add("journal.replay_records_per_s", ratio(float64(st.Replayed), el.Seconds()))
	return nil
}
