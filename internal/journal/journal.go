// Package journal is the durable run-state subsystem for the live plane:
// an append-only, CRC-framed write-ahead log that records task definitions,
// dispatches, completions, and file locations keyed by cachename. A manager
// opened with vine.WithJournal appends one Record per state transition and
// replays the log on restart, so a crashed manager resumes instead of
// restarting cold (§IV.B "Retaining Data" — the warm path the paper's
// near-interactive claim leans on).
//
// On-disk layout (one directory per run):
//
//	wal-00000001.log    segment: a sequence of frames
//	wal-00000002.log    (rotation at Options.SegmentBytes)
//	snap-00000002.snap  snapshot covering every segment with gen <= 2
//	wal-00000003.log    active segment
//
// Frame envelope — the same CRC-32C (Castagnoli) shape PR 4 put on every
// control frame:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][JSON payload]
//
// Durability model: Append buffers in memory and a group-commit timer
// (Options.SyncDelay) writes + fsyncs the batch, so a burst of completions
// costs one fsync, not one per record. Sync flushes synchronously and is the
// barrier callers use before declaring state durable. Replay tolerates
// exactly the failures a crash can produce: a torn tail (partial frame at
// the end of a segment) stops that segment's replay at the last valid frame;
// a bit flip inside a frame fails the CRC and the frame is skipped and
// counted, replay continues at the next frame boundary.
//
// Compaction: Cut rotates the active segment and returns the generation G of
// the last sealed one; the caller snapshots its *materialized* state (which
// reflects at least every record in segments <= G) and hands it to
// WriteSnapshot(G, recs), which atomically writes snap-G and deletes the
// covered segments. Replay(snapshot + tail) is equivalent to replay(full
// log) because records are idempotent upserts keyed by task id / cachename.
//
// Compaction policy: CompactionDue reports a compaction worth its cost once
// the bytes written since the last Cut reach max(SegmentBytes, size of the
// newest snapshot) — Redis's AOF-rewrite rule of a minimum size plus
// "grown by 100% since the last rewrite". Each snapshot is then paid for by
// a tail at least as large, so the snapshot bytes a run writes stay within
// about twice its appended bytes at any length, and replay reads at most
// one snapshot, a tail no larger than that snapshot, and one segment.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	frameHeader = 8
	// maxRecord bounds a single frame's payload. Anything larger is treated
	// as a corrupt length during replay (lengths are untrusted bytes).
	maxRecord = 16 << 20

	DefaultSegmentBytes = 4 << 20
	DefaultSyncDelay    = 2 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append/Sync on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Kind discriminates Record payloads.
type Kind string

const (
	KindTaskDef  Kind = "task_def"  // a task was submitted: identity + full spec
	KindDispatch Kind = "dispatch"  // a task was sent to a worker (informational)
	KindTaskDone Kind = "task_done" // a task completed: output sizes + timings
	KindTaskFail Kind = "task_fail" // a task failed terminally
	KindFileDecl Kind = "file_decl" // a file was declared at the manager
	KindUnlink   Kind = "unlink"    // a cachename was unlinked cluster-wide
	KindLease    Kind = "lease"     // a task was leased to a foreman (informational)
)

// FileRef names one task input: the in-sandbox name and the cachename that
// backs it. Mirrors vine's input binding without importing vine (the
// dependency points the other way).
type FileRef struct {
	Name      string `json:"n"`
	CacheName string `json:"c"`
}

// TaskSpec is the journal's wire form of a task definition — everything
// needed to re-enqueue the task if its outputs must be regenerated through
// the lineage ladder after a restart.
type TaskSpec struct {
	Mode     string    `json:"mode,omitempty"`
	Library  string    `json:"lib,omitempty"`
	Func     string    `json:"fn,omitempty"`
	Args     []byte    `json:"args,omitempty"`
	Inputs   []FileRef `json:"in,omitempty"`
	Outputs  []string  `json:"out,omitempty"`
	Cores    int       `json:"cores,omitempty"`
	Memory   int64     `json:"mem,omitempty"`
	Queue    string    `json:"q,omitempty"`
	Priority int       `json:"prio,omitempty"`
	// DeadlineNanos preserves the per-task attempt deadline across replay.
	DeadlineNanos int64 `json:"dl,omitempty"`
}

// Record is one journal entry. A single struct with kind-dependent fields
// keeps the wire format trivially forward-compatible (unknown fields are
// ignored on replay).
type Record struct {
	Kind Kind `json:"k"`

	// Task records.
	TaskID      int               `json:"tid,omitempty"`
	DefHash     string            `json:"def,omitempty"`
	Spec        *TaskSpec         `json:"spec,omitempty"`
	Outputs     map[string]string `json:"outs,omitempty"`  // output name → cachename
	OutputSizes map[string]int64  `json:"sizes,omitempty"` // cachename → bytes
	Worker      string            `json:"w,omitempty"`
	ExecNanos   int64             `json:"exec,omitempty"`
	SetupNanos  int64             `json:"setup,omitempty"`
	Error       string            `json:"err,omitempty"`

	// File records.
	CacheName string `json:"cn,omitempty"`
	Size      int64  `json:"size,omitempty"`
	Path      string `json:"path,omitempty"`
	Data      []byte `json:"data,omitempty"`
}

// Options tune durability/size trade-offs. Zero values mean defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	SegmentBytes int64
	// SyncDelay is the group-commit window: appends within one window share
	// a single write+fsync. Zero means DefaultSyncDelay.
	SyncDelay time.Duration
	// NoFsync skips fsync on flush — for tests that exercise logic, not
	// durability.
	NoFsync bool
}

// Stats counts journal activity since Open.
type Stats struct {
	Appends       int64 // records appended
	AppendedBytes int64 // framed bytes appended
	Syncs         int64 // write+fsync batches
	Rotations     int64 // segment rotations
	Snapshots     int64 // snapshots written
	SnapshotBytes int64 // framed bytes written to snapshots
	Replayed      int64 // records replayed (last Replay)
	Skipped       int64 // corrupt frames skipped (last Replay)
	TornTails     int64 // segments ending in a partial frame (last Replay)
}

// Journal is an open run journal. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	gen      uint64 // active segment generation
	size     int64  // bytes written to active segment
	pending  []byte // framed records awaiting flush
	timerSet bool
	lastSnap uint64 // generation of the newest snapshot
	// sinceCut counts bytes written to segments since the last Cut (on
	// Open: the tail left after the newest snapshot); snapBytes is the size
	// of the newest snapshot. CompactionDue compares the two.
	sinceCut  int64
	snapBytes int64
	closed    bool
	err       error // first write error, sticky
	st        Stats
}

// Open creates or reopens a journal directory. Existing segments are left
// untouched (replay reads them); appends always go to a fresh segment, so a
// torn tail from a previous crash is never appended after.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncDelay <= 0 {
		opts.SyncDelay = DefaultSyncDelay
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	var maxGen uint64
	for _, g := range segs {
		if g > maxGen {
			maxGen = g
		}
	}
	var lastSnap uint64
	for _, g := range snaps {
		if g > maxGen {
			maxGen = g
		}
		if g > lastSnap {
			lastSnap = g
		}
	}
	j := &Journal{dir: dir, opts: opts, gen: maxGen, lastSnap: lastSnap}
	if lastSnap > 0 {
		j.snapBytes = fileSize(j.snapPath(lastSnap))
	}
	for _, g := range segs {
		if g > lastSnap {
			j.sinceCut += fileSize(j.segPath(g))
		}
	}
	if err := j.openSegmentLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// Dir reports the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Err reports the first write error, if any. Appends after an error are
// dropped; the journal degrades to lossy rather than wedging the manager.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats returns a snapshot of journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// CompactionDue reports whether the bytes written since the last Cut have
// reached max(SegmentBytes, size of the newest snapshot), the point at
// which a snapshot compaction costs no more than the tail it replaces.
func (j *Journal) CompactionDue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceCut >= max(j.opts.SegmentBytes, j.snapBytes)
}

// fileSize reports a file's size, 0 if it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// segPath / snapPath name on-disk files; generations are zero-padded so
// lexical order is numeric order.
func (j *Journal) segPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("wal-%08d.log", gen))
}
func (j *Journal) snapPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("snap-%08d.snap", gen))
}

// scanDir lists segment and snapshot generations present in dir.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range ents {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &g); n == 1 {
			segs = append(segs, g)
		} else if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &g); n == 1 {
			snaps = append(snaps, g)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	return segs, snaps, nil
}

func (j *Journal) openSegmentLocked() error {
	j.gen++
	f, err := os.OpenFile(j.segPath(j.gen), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.size = 0
	return nil
}

// encodeFrame frames one record: length + CRC-32C + JSON payload.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// Append queues one record for the next group commit and returns the framed
// size. It never blocks on disk unless a flush is already in progress.
func (j *Journal) Append(rec *Record) (int, error) {
	buf, err := encodeFrame(rec)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.err != nil {
		return 0, j.err
	}
	j.pending = append(j.pending, buf...)
	j.st.Appends++
	j.st.AppendedBytes += int64(len(buf))
	if !j.timerSet {
		j.timerSet = true
		time.AfterFunc(j.opts.SyncDelay, j.flushTimer)
	}
	return len(buf), nil
}

func (j *Journal) flushTimer() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.timerSet = false
	j.flushLocked()
}

// flushLocked writes and fsyncs pending records and rotates the segment if
// it grew past SegmentBytes. Errors are sticky.
func (j *Journal) flushLocked() {
	if len(j.pending) == 0 || j.closed && j.f == nil {
		return
	}
	buf := j.pending
	j.pending = nil
	if _, err := j.f.Write(buf); err != nil {
		j.err = fmt.Errorf("journal: write: %w", err)
		return
	}
	if !j.opts.NoFsync {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("journal: fsync: %w", err)
			return
		}
	}
	j.size += int64(len(buf))
	j.sinceCut += int64(len(buf))
	j.st.Syncs++
	if j.size >= j.opts.SegmentBytes {
		j.rotateLocked()
	}
}

func (j *Journal) rotateLocked() {
	j.f.Close()
	if err := j.openSegmentLocked(); err != nil {
		j.err = err
		return
	}
	j.st.Rotations++
}

// Sync flushes all pending appends to disk (write + fsync) before returning.
// This is the durability barrier: after Sync returns, every Append that
// happened-before is crash-safe.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.flushLocked()
	return j.err
}

// Close flushes and closes the journal. Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.flushLocked()
	j.closed = true
	err := j.err
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// Replay streams every durable record — the newest snapshot, then every
// segment after it, in generation order — through fn. Corrupt frames are
// skipped and counted; a torn tail stops that segment's replay at the last
// valid frame. Replay must not race Append: call it after Open (before
// appending) or after the writer has stopped.
func (j *Journal) Replay(fn func(Record)) (Stats, error) {
	j.mu.Lock()
	j.flushLocked()
	snapGen := j.lastSnap
	activeGen := j.gen
	j.st.Replayed, j.st.Skipped, j.st.TornTails = 0, 0, 0
	j.mu.Unlock()

	segs, snaps, err := scanDir(j.dir)
	if err != nil {
		return Stats{}, err
	}
	var replayed, skipped, torn int64
	if snapGen > 0 {
		ok := false
		for _, g := range snaps {
			if g == snapGen {
				ok = true
			}
		}
		if ok {
			r, s, t := replaySegment(j.snapPath(snapGen), fn)
			replayed, skipped, torn = replayed+r, skipped+s, torn+t
		}
	}
	for _, g := range segs {
		if g <= snapGen || g > activeGen {
			continue
		}
		r, s, t := replaySegment(j.segPath(g), fn)
		replayed, skipped, torn = replayed+r, skipped+s, torn+t
	}
	j.mu.Lock()
	j.st.Replayed, j.st.Skipped, j.st.TornTails = replayed, skipped, torn
	st := j.st
	j.mu.Unlock()
	return st, nil
}

// replaySegment reads one segment (or snapshot) file, forwarding every valid
// record to fn. CRC or decode failures skip the frame; a short header,
// implausible length, or short payload is a torn tail and ends the file.
func replaySegment(path string, fn func(Record)) (replayed, skipped, torn int64) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0
	}
	defer f.Close()
	r := io.Reader(f)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				torn++
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecord {
			// The length itself is untrusted; a bogus value means we cannot
			// find the next frame boundary, so the rest of the file is lost.
			torn++
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			torn++
			return
		}
		if crc32.Checksum(payload, castagnoli) != want {
			skipped++
			continue
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			skipped++
			continue
		}
		fn(rec)
		replayed++
	}
}

// Cut flushes, seals the active segment, and opens a fresh one. It returns
// the generation of the last sealed segment — the high-water mark a
// subsequent WriteSnapshot may cover. Callers capture their materialized
// state *after* Cut (under the same lock that orders their appends), so the
// snapshot reflects at least every record in segments <= G; replaying a
// later record whose effect is already in the snapshot is harmless because
// records are idempotent upserts.
//
// An empty active segment (a size-triggered rotation just fired, or nothing
// was appended since the last Cut) is not sealed: the previous generation is
// already the high-water mark, and sealing an empty segment would let a
// snapshot cover a generation that live followers never need to read —
// tripping their lapped-by-compaction reset even though they missed nothing.
// With no sealed data at all the returned generation is 0, which
// WriteSnapshot treats as a no-op.
func (j *Journal) Cut() (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	j.flushLocked()
	if j.err != nil {
		return 0, j.err
	}
	j.sinceCut = 0
	if j.size == 0 {
		return j.gen - 1, nil
	}
	g := j.gen
	j.rotateLocked()
	return g, j.err
}

// WriteSnapshot atomically writes a snapshot covering every segment with
// generation <= upTo, then deletes those segments (and older snapshots).
// A stale upTo (already covered by a newer snapshot) is a no-op.
func (j *Journal) WriteSnapshot(upTo uint64, recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if upTo == 0 || upTo <= j.lastSnap || upTo >= j.gen {
		// upTo >= j.gen would cover the active segment; Cut first.
		return nil
	}
	var buf []byte
	for i := range recs {
		b, err := encodeFrame(&recs[i])
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	tmp := j.snapPath(upTo) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	_, werr := f.Write(buf)
	if werr == nil && !j.opts.NoFsync {
		werr = f.Sync()
	}
	if werr != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", werr)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, j.snapPath(upTo)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	prevSnap := j.lastSnap
	j.lastSnap = upTo
	j.snapBytes = int64(len(buf))
	j.st.Snapshots++
	j.st.SnapshotBytes += int64(len(buf))
	segs, snaps, err := scanDir(j.dir)
	if err != nil {
		return nil // snapshot landed; cleanup is best-effort
	}
	for _, g := range segs {
		if g <= upTo {
			os.Remove(j.segPath(g))
		}
	}
	for _, g := range snaps {
		if g < upTo || g == prevSnap && prevSnap < upTo {
			os.Remove(j.snapPath(g))
		}
	}
	return nil
}
