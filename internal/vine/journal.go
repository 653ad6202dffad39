package vine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
	"hepvine/internal/sched"
)

// Durable run state: the manager-side glue around internal/journal. With
// WithJournal attached, every state transition that matters for resuming a
// run — task definitions, dispatches, completions, terminal failures, file
// declarations, unlinks — is appended as one journal record, and NewManager
// replays the journal before listening, so a restarted manager begins life
// already knowing every completed task and every file the run produced.
//
// Reconciliation rules (what is and isn't replayed):
//
//   - Completed tasks are materialized as done taskRecords with their
//     original ids and closed handles. Their outputs get fileState entries
//     (producer wired for the lineage ladder) but no replicas — replicas
//     come back from reconnecting workers' cache inventories.
//   - Submitted-but-incomplete tasks are dropped: the client resubmits the
//     graph, and content-addressed task identity (defHash) dedupes the
//     parts that already ran — the warm path.
//   - Declared files are re-declared if their backing path still hashes to
//     the same cachename (buffers ride inline in the record); otherwise the
//     entry exists without a manager source and consumers fall back to
//     worker replicas or lineage recovery. A shared file is checked
//     by stat instead of re-hashed; one whose identity changed is dropped the same
//     way, and a task that needs it fails with ErrSharedFileChanged.
//   - Terminally failed tasks are forgotten, so a resubmission retries
//     them fresh.

// journalBufferLimit bounds how large a declared buffer may be to ride
// inline in a journal record. Larger buffers are journaled without data:
// after a restart they are unrecoverable unless re-declared (documented
// durability gap, same as a declared file whose path vanished).
const journalBufferLimit = 8 << 20

// journalLocked appends one record (requires m.mu). Journal write errors
// are sticky inside the journal and surface via Journal.Err; the manager
// degrades to lossy journaling rather than failing the run.
//
// A stopped manager appends nothing: Stop sets stopped inside its m.mu
// critical section — which drains any in-flight Submit or completion
// handler still holding the lock — and only then syncs the journal, so
// the final Sync is ordered after every append that will ever happen. A
// late worker message racing the shutdown can no longer slip a record in
// behind the sync (where a resume would silently lose it).
func (m *Manager) journalLocked(rec *journal.Record) {
	if m.jr == nil || m.stopped {
		return
	}
	n, err := m.jr.Append(rec)
	if err != nil {
		return
	}
	m.met.journalAppends.Inc()
	m.met.journalBytes.Add(int64(n))
	if m.rec != nil {
		ev := obs.Event{Type: obs.EvJournalAppend, Detail: string(rec.Kind)}
		if rec.TaskID > 0 || rec.Kind == journal.KindTaskDef || rec.Kind == journal.KindTaskDone {
			ev.Task = strconv.Itoa(rec.TaskID)
		}
		m.rec.Emit(ev)
	}
}

// specToJournal converts a vine task spec to the journal wire form.
func specToJournal(t Task) *journal.TaskSpec {
	s := &journal.TaskSpec{
		Mode: string(t.Mode), Library: t.Library, Func: t.Func, Args: t.Args,
		Outputs: append([]string(nil), t.Outputs...),
		Cores:   t.Cores, Memory: t.Memory, Queue: t.Queue, Priority: t.Priority,
		DeadlineNanos: t.Deadline.Nanoseconds(),
	}
	for _, in := range t.Inputs {
		s.Inputs = append(s.Inputs, journal.FileRef{Name: in.Name, CacheName: string(in.CacheName)})
	}
	return s
}

// specFromJournal is the inverse of specToJournal.
func specFromJournal(s *journal.TaskSpec) Task {
	t := Task{
		Mode: TaskMode(s.Mode), Library: s.Library, Func: s.Func, Args: s.Args,
		Outputs: append([]string(nil), s.Outputs...),
		Cores:   s.Cores, Memory: s.Memory, Queue: s.Queue, Priority: s.Priority,
		Deadline: time.Duration(s.DeadlineNanos),
	}
	for _, in := range s.Inputs {
		t.Inputs = append(t.Inputs, FileRef{Name: in.Name, CacheName: CacheName(in.CacheName)})
	}
	return t
}

// taskDefRecord builds the KindTaskDef record for a freshly submitted task.
func taskDefRecord(rec *taskRecord) *journal.Record {
	outs := make(map[string]string, len(rec.handle.outputs))
	for name, cn := range rec.handle.outputs {
		outs[name] = string(cn)
	}
	return &journal.Record{
		Kind: journal.KindTaskDef, TaskID: rec.id, DefHash: rec.defHash,
		Spec: specToJournal(rec.spec), Outputs: outs,
	}
}

// declRecord builds the KindFileDecl record for a manager-declared file.
// Buffers over journalBufferLimit are journaled without data (size-only
// tombstone of the declaration; unrecoverable after restart unless
// re-declared).
func (m *Manager) declRecord(name CacheName, fs *fileState) *journal.Record {
	r := &journal.Record{
		Kind: journal.KindFileDecl, CacheName: string(name),
		Size: m.reps.Size(string(name)), Path: fs.mgrPath,
	}
	if fs.mgrData != nil && len(fs.mgrData) <= journalBufferLimit {
		r.Data = fs.mgrData
	}
	return r
}

// replayJournal reconstructs manager state from the attached journal. It
// runs at construction, before any goroutine or connection exists, so no
// locking is needed. Returns the number of completed tasks materialized.
//
// Two sources feed it: without WithReplayState the journal is read from
// disk here; with it (the hot-standby takeover path) the fold arrived
// pre-built from a journal.Follower and only materialization remains.
func (m *Manager) replayJournal() (int, error) {
	rs := m.preState
	if rs == nil {
		rs = NewReplayState()
		st, err := m.jr.Replay(rs.Apply)
		if err != nil {
			return 0, err
		}
		m.met.journalReplayed.Add(st.Replayed)
		m.met.journalSkipped.Add(st.Skipped)
		if st.Skipped > 0 {
			// Corrupt frames were silently dropped from the fold; make the
			// loss visible (a skipped task_def means its task re-runs, a
			// skipped file_decl means a re-declare or lineage recovery).
			m.met.replaySkipped.Add(st.Skipped)
			m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: "journal",
				Detail: fmt.Sprintf("replay skipped %d corrupt frames (of %d replayed)", st.Skipped, st.Replayed)})
		}
	} else {
		m.met.journalReplayed.Add(rs.Applied())
	}
	return m.materializeReplay(rs)
}

// materializeReplay turns a folded ReplayState into live manager state:
// fileState entries (with manager sources re-verified) and done
// taskRecords with closed handles.
func (m *Manager) materializeReplay(rs *ReplayState) (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	defs, dones, files, maxID := rs.defs, rs.dones, rs.files, rs.maxID

	// Materialize files first, so task outputs and declared inputs exist
	// before any handle references them.
	for cn, rf := range files {
		fs := &fileState{producer: rf.producer}
		m.reps.SetSize(string(cn), rf.size)
		switch {
		case rf.data != nil && int64(len(rf.data)) == rf.size:
			fs.mgrData = append([]byte(nil), rf.data...)
			fs.mgrCRC = crc32.Checksum(fs.mgrData, castagnoli)
			fs.onManager = true
		case rf.path != "" && cn.isShared():
			// A shared file is checked by stat, not re-hashed: it keeps its
			// source only while its identity still gives the same name.
			fs.mgrPath = rf.path
			fs.onManager = sharedIntact(cn, rf.path)
		case rf.path != "":
			// Re-verify the path still holds the declared content: the
			// cachename is a content hash, so a changed file must not be
			// served under the old name. The same read pass yields the
			// CRC-32C the transfer server sends for it.
			now := sharedNow()
			before, statErr := os.Stat(rf.path)
			if name, size, crc, err := fileBlobName(rf.path); err == nil && name == cn && size == rf.size {
				fs.mgrPath, fs.mgrCRC = rf.path, crc
				fs.onManager = true
				if statErr == nil {
					m.noteReplayedPath(rf.path, cn, before, now)
				}
			}
		}
		m.files[cn] = fs
	}

	// Materialize completed tasks: done records with closed handles and
	// scheduler-side specs intact, so the lineage ladder can re-enqueue
	// them if their outputs turn out to be lost everywhere.
	warmable := 0
	for id, done := range dones {
		def, ok := defs[id]
		if !ok {
			continue // definition lost to a skipped frame; resubmission re-runs
		}
		spec := specFromJournal(def.Spec)
		h := &TaskHandle{
			ID:      id,
			mgr:     m,
			outputs: make(map[string]CacheName, len(def.Outputs)),
			doneC:   make(chan struct{}),
		}
		h.state = TaskDone
		h.notified = true
		h.worker = done.Worker
		h.execTime = time.Duration(done.ExecNanos)
		h.setup = time.Duration(done.SetupNanos)
		close(h.doneC)
		rec := &taskRecord{
			id: id, spec: spec, handle: h, state: TaskDone,
			worker: -1, defHash: def.DefHash,
		}
		for out, cnStr := range def.Outputs {
			cn := CacheName(cnStr)
			h.outputs[out] = cn
			if fs := m.files[cn]; fs != nil {
				fs.producer = id
			}
		}
		inputs := make([]string, len(spec.Inputs))
		for i, in := range spec.Inputs {
			inputs[i] = string(in.CacheName)
		}
		rec.sq = &sched.Task{
			ID: rec.label(), Queue: spec.Queue, Priority: spec.Priority,
			Cores: spec.Cores, Memory: spec.Memory, Inputs: inputs,
		}
		if rec.sq.Cores <= 0 {
			rec.sq.Cores = 1
		}
		m.tasks[id] = rec
		if def.DefHash != "" {
			m.replayed[def.DefHash] = rec
		}
		warmable++
	}
	if maxID >= m.nextTID {
		m.nextTID = maxID + 1
	}
	return warmable, nil
}

// outputsMatchLocked reports whether a resubmission's requested outputs are
// exactly the replayed task's outputs and none of them has been unlinked
// (an unlinked output is gone for good; the task must run fresh).
func (m *Manager) outputsMatchLocked(old *taskRecord, outputs []string) bool {
	if len(outputs) != len(old.handle.outputs) {
		return false
	}
	for _, out := range outputs {
		cn, ok := old.handle.outputs[out]
		if !ok {
			return false
		}
		if _, exists := m.files[cn]; !exists {
			return false
		}
	}
	return true
}

// snapshotRecordsLocked builds the compaction snapshot: the idempotent
// upsert set that reconstructs current state — a def per task that has not
// failed, a done per completed task, and a decl per manager-declared file.
// An in-flight task's def must survive: compaction deletes the segment
// that held it, and its task_done lands in the tail with nothing else to
// join. Replay still drops defs that never complete.
func (m *Manager) snapshotRecordsLocked() []journal.Record {
	var recs []journal.Record
	for cn, fs := range m.files {
		if fs.producer >= 0 {
			continue // outputs are reconstructed from task_done records
		}
		recs = append(recs, *m.declRecord(cn, fs))
	}
	for _, rec := range m.tasks {
		if rec.state == TaskFailed {
			continue
		}
		recs = append(recs, *taskDefRecord(rec))
		if rec.state != TaskDone {
			continue
		}
		sizes := make(map[string]int64, len(rec.handle.outputs))
		for _, cn := range rec.handle.outputs {
			if m.files[cn] != nil {
				sizes[string(cn)] = m.reps.Size(string(cn))
			}
		}
		rec.handle.mu.Lock()
		worker, exec, setup := rec.handle.worker, rec.handle.execTime, rec.handle.setup
		rec.handle.mu.Unlock()
		recs = append(recs, journal.Record{
			Kind: journal.KindTaskDone, TaskID: rec.id, Worker: worker,
			OutputSizes: sizes, ExecNanos: exec.Nanoseconds(), SetupNanos: setup.Nanoseconds(),
		})
	}
	return recs
}

// maybeCompactJournalLocked starts a snapshot compaction when the journal
// reports one due: the bytes written since the last cut have outgrown both
// a segment and the newest snapshot (journal.CompactionDue), so the
// snapshots a run writes stay within about twice its journaled bytes however
// long it runs. At most one automatic compaction is in flight. The segment
// cut happens under m.mu (so the snapshot's state capture is ordered against
// appends); the snapshot file write runs in a goroutine off the lock, which
// Stop waits for.
func (m *Manager) maybeCompactJournalLocked() {
	if m.jr == nil || m.stopped || m.compacting || !m.jr.CompactionDue() {
		return
	}
	g, err := m.jr.Cut()
	if err != nil {
		return
	}
	m.compacting = true
	m.compactions.Add(1)
	recs := m.snapshotRecordsLocked()
	go func() {
		defer m.compactions.Done()
		if m.jr.WriteSnapshot(g, recs) == nil {
			m.met.journalSnapshots.Inc()
		}
		m.mu.Lock()
		m.compacting = false
		m.mu.Unlock()
	}()
}

// CompactJournal forces a snapshot compaction now: the log is cut, current
// state is written as a snapshot, and covered segments are deleted. A
// no-op without an attached journal.
func (m *Manager) CompactJournal() error {
	if m.jr == nil {
		return nil
	}
	m.mu.Lock()
	g, err := m.jr.Cut()
	if err != nil {
		m.mu.Unlock()
		return err
	}
	recs := m.snapshotRecordsLocked()
	m.mu.Unlock()
	if err := m.jr.WriteSnapshot(g, recs); err != nil {
		return err
	}
	m.met.journalSnapshots.Inc()
	return nil
}

// failPendingLocked closes every not-yet-notified task handle with err, so
// clients blocked in Wait return promptly when the manager goes away. No
// metrics, no journal records: these tasks didn't fail, the manager did,
// and a journal-resumed manager will pick them up from a resubmission.
func (m *Manager) failPendingLocked(err error) {
	for _, rec := range m.tasks {
		rec.handle.mu.Lock()
		notified := rec.handle.notified
		if !notified {
			rec.handle.err = err
			rec.handle.notified = true
		}
		rec.handle.mu.Unlock()
		if !notified {
			close(rec.handle.doneC)
		}
	}
}

// Crash stops the manager abruptly — no kill messages to workers, no final
// journal sync — simulating a manager process kill for resume testing.
// Workers see a dead connection (and reconnect if configured); the journal
// retains exactly what the group-commit window had already flushed.
func (m *Manager) Crash() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	ws := make([]*workerState, 0, len(m.workers))
	for _, w := range m.workers {
		ws = append(ws, w)
	}
	m.failPendingLocked(errors.New("vine: manager crashed"))
	m.notifyLocked()
	close(m.stopC)
	m.mu.Unlock()
	for _, w := range ws {
		w.conn.close()
	}
	m.ln.Close()
	m.ts.close()
}

// Journal reports the attached run journal (nil when durability is off).
func (m *Manager) Journal() *journal.Journal { return m.jr }

// WarmHits reports how many resubmitted tasks were satisfied from replayed
// journal state with all outputs live — tasks a warm or resumed run never
// re-executed.
func (m *Manager) WarmHits() int { return int(m.met.warmHits.Value()) }
