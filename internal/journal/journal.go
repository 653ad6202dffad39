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
// Frame envelope — the same CRC-32C (Castagnoli) shape as every control
// frame:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][payload]
//
// The payload is a binary record (record.go): a tag byte below 0x20 naming
// the Kind, then the fields as varints and length-prefixed strings. A
// payload whose first byte is 0x20 or above is JSON, the body journals
// written before the binary one carry; replay decodes both.
//
// Durability model: Append encodes into an in-memory batch and a
// group-commit timer (Options.SyncDelay) writes + fsyncs it, so a burst of
// completions costs one fsync, not one per record. The flush swaps the batch
// out under the append lock and writes it under a separate flush lock, so
// Append never waits for a write or fsync. Sync flushes synchronously and is
// the barrier callers use before declaring state durable. Replay tolerates
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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

const (
	frameHeader = 8
	// maxRecord bounds a single frame's payload. Anything larger is treated
	// as a corrupt length during replay (lengths are untrusted bytes).
	maxRecord = 16 << 20

	// maxSpare caps the flushed batch buffer kept for reuse; a larger one
	// (a burst) is left to the collector.
	maxSpare = 1 << 20
	// replayBuffer is the read-ahead Replay uses per file, so a frame
	// costs no read syscall of its own.
	replayBuffer = 64 << 10

	DefaultSegmentBytes = 4 << 20
	DefaultSyncDelay    = 2 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by Append/Sync on a closed journal.
	ErrClosed = errors.New("journal: closed")
	errBadCRC = errors.New("journal: frame checksum mismatch")
)

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

// Record is one journal entry: a single struct with kind-dependent fields,
// all of which the binary body carries for every kind. The JSON tags name
// the fields of the JSON body older journals carry.
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

	// flushMu serializes everything that writes files: the group-commit
	// flush, rotation, Cut, WriteSnapshot, Close, and Replay's opening
	// flush. The lock order is flushMu, then mu. Append takes only mu, so a
	// write or fsync in progress never blocks it.
	flushMu  sync.Mutex
	f        *os.File // active segment
	gen      uint64   // active segment generation
	size     int64    // bytes written to active segment
	lastSnap uint64   // generation of the newest snapshot

	mu       sync.Mutex
	pending  []byte // framed records awaiting flush
	spare    []byte // the last flushed batch's buffer, reused as pending
	timerSet bool
	// sinceCut counts bytes written to segments since the last Cut (on
	// Open: the tail left after the newest snapshot); snapBytes is the size
	// of the newest snapshot. CompactionDue compares the two.
	sinceCut  int64
	snapBytes int64
	closed    bool  // set under both locks, so either one suffices to read it
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
	if err := j.openSegment(); err != nil {
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

// openSegment creates the next generation's segment. The caller holds
// flushMu (or is Open).
func (j *Journal) openSegment() error {
	j.gen++
	f, err := os.OpenFile(j.segPath(j.gen), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.size = 0
	return nil
}

// Append encodes one record into the batch awaiting the next group commit
// and returns its framed size. It takes only mu, so it never waits for a
// write or fsync in progress.
func (j *Journal) Append(rec *Record) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.err != nil {
		return 0, j.err
	}
	start := len(j.pending)
	var err error
	if j.pending, err = appendFrame(j.pending, rec); err != nil {
		return 0, err
	}
	n := len(j.pending) - start
	j.st.Appends++
	j.st.AppendedBytes += int64(n)
	if !j.timerSet {
		j.timerSet = true
		time.AfterFunc(j.opts.SyncDelay, j.flushTimer)
	}
	return n, nil
}

func (j *Journal) flushTimer() {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	j.mu.Lock()
	j.timerSet = false
	j.mu.Unlock()
	j.flush()
}

// flush writes and fsyncs the pending batch and rotates the segment if it
// grew past SegmentBytes. The caller holds flushMu. mu is held only to swap
// the batch out and to account for it, so Appends fill the next batch while
// this one is on its way to disk. Errors are sticky; a batch appended
// during a failed flush is dropped.
func (j *Journal) flush() {
	j.mu.Lock()
	buf := j.pending
	if len(buf) == 0 || j.err != nil || j.f == nil {
		j.pending = buf[:0]
		j.mu.Unlock()
		return
	}
	j.pending, j.spare = j.spare, nil
	j.mu.Unlock()

	_, err := j.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("journal: write: %w", err)
	} else if !j.opts.NoFsync {
		if err = j.f.Sync(); err != nil {
			err = fmt.Errorf("journal: fsync: %w", err)
		}
	}

	j.mu.Lock()
	if cap(buf) <= maxSpare {
		j.spare = buf[:0]
	}
	if err != nil {
		j.err = err
		j.mu.Unlock()
		return
	}
	j.sinceCut += int64(len(buf))
	j.st.Syncs++
	j.mu.Unlock()
	j.size += int64(len(buf))
	if j.size >= j.opts.SegmentBytes {
		j.rotate()
	}
}

// rotate seals the active segment and opens the next. The caller holds
// flushMu.
func (j *Journal) rotate() error {
	j.f.Close()
	err := j.openSegment()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.err = err
		return err
	}
	j.st.Rotations++
	return nil
}

// Sync flushes all pending appends to disk (write + fsync) before returning.
// This is the durability barrier: after Sync returns, every Append that
// happened-before is crash-safe. A flush already in progress holds flushMu,
// so Sync also waits for the batch that flush took.
func (j *Journal) Sync() error {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.flush()
	return j.Err()
}

// Close flushes and closes the journal. Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	// Closed before the final flush, so every Append that succeeded is in
	// the batch it writes.
	j.closed = true
	j.mu.Unlock()
	j.flush()
	err := j.Err()
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
	j.flushMu.Lock()
	j.flush()
	snapGen := j.lastSnap
	activeGen := j.gen
	j.mu.Lock()
	j.st.Replayed, j.st.Skipped, j.st.TornTails = 0, 0, 0
	j.mu.Unlock()
	j.flushMu.Unlock()

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
	return replayFrames(bufio.NewReaderSize(f, replayBuffer), fn)
}

// replayFrames is replaySegment's loop over the frames of one file.
func replayFrames(r io.Reader, fn func(Record)) (replayed, skipped, torn int64) {
	var hdr [frameHeader]byte
	var payload []byte // reused: decodeRecord copies everything it keeps
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				torn++
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecord {
			// The length itself is untrusted; a bogus value means we cannot
			// find the next frame boundary, so the rest of the file is lost.
			torn++
			return
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			torn++
			return
		}
		rec, err := frameRecord(payload, binary.LittleEndian.Uint32(hdr[4:8]))
		if err != nil {
			skipped++
			continue
		}
		fn(rec)
		replayed++
	}
}

// frameRecord checks a frame's payload against the CRC-32C from its header
// and decodes it.
func frameRecord(payload []byte, crc uint32) (Record, error) {
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, errBadCRC
	}
	return decodeRecord(payload)
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
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	j.flush()
	j.mu.Lock()
	err := j.err
	if err == nil {
		j.sinceCut = 0
	}
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if j.size == 0 {
		return j.gen - 1, nil
	}
	g := j.gen
	return g, j.rotate()
}

// WriteSnapshot atomically writes a snapshot covering every segment with
// generation <= upTo, then deletes those segments (and older snapshots).
// A stale upTo (already covered by a newer snapshot) is a no-op. Appends
// proceed while the snapshot is written; group commits wait for it.
func (j *Journal) WriteSnapshot(upTo uint64, recs []Record) error {
	var buf []byte
	for i := range recs {
		var err error
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			return err
		}
	}
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if upTo == 0 || upTo <= j.lastSnap || upTo >= j.gen {
		// upTo >= j.gen would cover the active segment; Cut first.
		return nil
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
	j.mu.Lock()
	j.snapBytes = int64(len(buf))
	j.st.Snapshots++
	j.st.SnapshotBytes += int64(len(buf))
	j.mu.Unlock()
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
