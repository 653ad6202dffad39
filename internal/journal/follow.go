package journal

import (
	"encoding/binary"
	"os"
	"slices"
	"time"
)

// Follower is a concurrent tail reader over a journal directory: the hot
// half of a standby manager. Where Replay reads a quiesced log once, a
// Follower runs *against a live writer*, streaming records as the primary
// appends them, crossing segment rotations, and surviving snapshot
// compaction — so a standby's replay state is already warm when the lease
// expires and takeover is O(records since the last poll), not O(log).
//
// Safety against a concurrent writer relies on two ordering guarantees the
// writer provides:
//
//   - A segment's bytes are fully written (and fsynced) before the next
//     segment's file is created, so once wal-(G+1).log exists, wal-G.log is
//     sealed: a partial frame at its tail is real corruption, not a write
//     in flight.
//   - Snapshots land by atomic rename, so a snapshot file, once visible,
//     is complete.
//
// A partial frame at the tail of the *active* segment is therefore "wait
// for more bytes", retried from the same offset at the next poll — the
// torn-tail-tolerant read the failover protocol needs — while the same
// bytes in a *sealed* segment are a torn tail to count and step over.
//
// Compaction can outrun a slow follower: if the segment after the one just
// finished was already folded into a snapshot and deleted, the intervening
// records are gone from disk. The follower then *resets*: it calls OnReset
// (the consumer must discard its materialized state), replays the covering
// snapshot, and continues from the first surviving segment. A follower that
// keeps up never resets, and every record is delivered exactly once.
type Follower struct {
	dir  string
	opts FollowerOptions

	f    *os.File // open segment or snapshot being read; nil before first poll
	gen  uint64   // generation of f (snapshots and segments share the counter)
	off  int64    // byte offset of the next unread frame in f
	snap bool     // f is a snapshot, not a segment
	buf  []byte   // payload buffer, reused across frames
	st   FollowerStats
}

// FollowerOptions tune a Follower. Zero values mean defaults.
type FollowerOptions struct {
	// PollInterval is the sleep between polls in Run (default 2ms — the
	// journal's own group-commit window, so a follower lags the primary by
	// roughly one fsync batch).
	PollInterval time.Duration
	// OnReset is called (before any record is re-delivered) when compaction
	// deleted segments the follower had not read yet: the consumer must
	// clear its materialized state, which the follower then rebuilds from
	// the covering snapshot. Nil is allowed if the consumer's record
	// application is idempotent-and-monotone, but counting consumers want it.
	OnReset func()
}

// FollowerStats counts follower activity.
type FollowerStats struct {
	Records   int64 // records delivered
	Skipped   int64 // corrupt frames stepped over (bad CRC / undecodable)
	TornTails int64 // sealed segments that ended mid-frame
	Rotations int64 // segment boundaries crossed
	Resets    int64 // compaction outran the follower; state was rebuilt
}

// NewFollower tails the journal directory at dir. The directory (and the
// journal inside it) need not exist yet: polls before the writer's first
// segment simply deliver nothing.
func NewFollower(dir string, opts FollowerOptions) *Follower {
	if opts.PollInterval <= 0 {
		opts.PollInterval = DefaultSyncDelay
	}
	return &Follower{dir: dir, opts: opts}
}

// Stats returns a snapshot of follower counters. Not safe to race Poll —
// callers own the polling goroutine and read stats from it (or after it).
func (f *Follower) Stats() FollowerStats { return f.st }

// Close releases the open segment handle. Poll must not be called after.
func (f *Follower) Close() {
	if f.f != nil {
		f.f.Close()
		f.f = nil
	}
}

// Run polls until stop closes, forwarding every record to fn. It returns
// the number of records delivered.
func (f *Follower) Run(stop <-chan struct{}, fn func(Record)) int64 {
	t := time.NewTicker(f.opts.PollInterval)
	defer t.Stop()
	for {
		f.Poll(fn)
		select {
		case <-stop:
			return f.st.Records
		case <-t.C:
		}
	}
}

// Drain polls repeatedly until a pass delivers nothing new — the takeover
// barrier: after Drain returns, every record durable on disk has been
// forwarded. Only meaningful once the writer has stopped appending.
func (f *Follower) Drain(fn func(Record)) {
	for f.Poll(fn) > 0 {
	}
}

// Poll delivers every record currently readable and returns how many it
// forwarded. A partial frame at the tail of the active segment is left for
// the next poll; everything else advances.
func (f *Follower) Poll(fn func(Record)) int64 {
	var delivered int64
	for {
		n, more := f.pollStep(fn)
		delivered += n
		if !more {
			return delivered
		}
	}
}

// pollStep makes one unit of progress: deliver the readable frames of the
// current file, or move to the next file. more=false means "nothing further
// until the writer produces more bytes".
func (f *Follower) pollStep(fn func(Record)) (delivered int64, more bool) {
	if f.f == nil {
		return 0, f.openNext(fn)
	}
	// Seal check BEFORE reading: if the segment is sealed now, no byte can
	// be appended after the read below, so the read is guaranteed to drain
	// it completely. Checking after the read would race the writer — bytes
	// appended between the read and the check would be skipped as torn.
	sealed := f.snap // a snapshot is complete by construction
	if !sealed {
		segs, snaps, err := scanDir(f.dir)
		if err != nil {
			return 0, false
		}
		for _, g := range segs {
			if g > f.gen {
				sealed = true
				break
			}
		}
		if !sealed {
			// A snapshot at a gen >= ours also seals the segment: snapshots
			// never cover the writer's active segment, so ours cannot be it.
			for _, g := range snaps {
				if g >= f.gen {
					sealed = true
					break
				}
			}
		}
	}
	delivered = f.readFrames(fn)
	if !sealed {
		// Possibly mid-append: whatever is unread will arrive (or the
		// segment will seal) by a later poll.
		return delivered, false
	}
	// Sealed with leftover bytes = torn tail (real corruption or a crash
	// mid-batch); count it and step to the successor.
	if !f.snap {
		if fi, err := f.f.Stat(); err == nil && f.off < fi.Size() {
			f.st.TornTails++
		}
	}
	f.f.Close()
	f.f = nil
	return delivered, true
}

// openNext opens the next file to read: on first use the newest snapshot
// (or the oldest segment), afterwards the next segment generation — or,
// when compaction removed it, the covering snapshot after an OnReset.
func (f *Follower) openNext(fn func(Record)) (more bool) {
	segs, snaps, err := scanDir(f.dir)
	if err != nil || len(segs) == 0 && len(snaps) == 0 {
		return false // journal not created yet
	}
	var newestSnap uint64
	for _, g := range snaps {
		if g > newestSnap {
			newestSnap = g
		}
	}
	// The next generation to read. Snapshot gen S folds in every segment
	// <= S, so after reading snap-S the cursor continues at segments > S.
	// Segments are only ever deleted by compaction (which leaves a covering
	// snapshot behind), so the segments on disk form a contiguous run above
	// the newest snapshot — a missing gen f.gen+1 means either "not written
	// yet" or "folded into a newer snapshot", never a silent hole.
	next := uint64(0)
	for _, g := range segs {
		if g > f.gen && (next == 0 || g < next) {
			next = g
		}
	}
	switch {
	case f.gen == 0:
		// First poll: newest snapshot if one exists, else the oldest segment.
		if newestSnap > 0 {
			return f.openFile(f.snapPath(newestSnap), newestSnap, true)
		}
		return f.openFile(f.segPath(next), next, false)
	case next == f.gen+1:
		// Normal advance: the successor segment is on disk. (Even if a new
		// snapshot already covers it, reading the segment delivers the same
		// records without discarding consumer state.)
		f.st.Rotations++
		return f.openFile(f.segPath(next), next, false)
	case newestSnap > f.gen:
		// Compaction outran us: the records in (f.gen, newestSnap] now live
		// only in the snapshot. Discard consumer state and rebuild from it.
		f.st.Resets++
		if f.opts.OnReset != nil {
			f.opts.OnReset()
		}
		return f.openFile(f.snapPath(newestSnap), newestSnap, true)
	case next != 0:
		// A gap with no covering snapshot: the intervening generations were
		// never segment files (Open skips past snapshot gens). Step over it.
		f.st.Rotations++
		return f.openFile(f.segPath(next), next, false)
	default:
		return false // fully caught up; wait for the writer
	}
}

func (f *Follower) openFile(path string, gen uint64, snap bool) bool {
	file, err := os.Open(path)
	if err != nil {
		// Deleted between scan and open (compaction racing us): retry the
		// scan on the next step.
		return true
	}
	f.f, f.gen, f.off, f.snap = file, gen, 0, snap
	return true
}

func (f *Follower) segPath(gen uint64) string  { return (&Journal{dir: f.dir}).segPath(gen) }
func (f *Follower) snapPath(gen uint64) string { return (&Journal{dir: f.dir}).snapPath(gen) }

// readFrames forwards complete frames from the current offset. It stops at
// the first incomplete frame (leaving off pointing at it) so a write in
// flight is retried whole on the next poll — never delivered torn.
func (f *Follower) readFrames(fn func(Record)) int64 {
	var delivered int64
	var hdr [frameHeader]byte
	for {
		if _, err := f.f.ReadAt(hdr[:], f.off); err != nil {
			return delivered // short header: wait (or seal-check in caller)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecord {
			// Untrusted length gone bad: no way to find the next boundary.
			// Treat like an unreadable tail; the seal check decides whether
			// it's "wait" (can't happen for an append-only writer) or torn.
			return delivered
		}
		// Reused across frames: decodeRecord copies everything it keeps.
		f.buf = slices.Grow(f.buf[:0], int(n))[:n]
		if _, err := f.f.ReadAt(f.buf, f.off+frameHeader); err != nil {
			return delivered // partial payload: wait for the rest
		}
		f.off += frameHeader + int64(n)
		rec, err := frameRecord(f.buf, binary.LittleEndian.Uint32(hdr[4:8]))
		if err != nil {
			f.st.Skipped++
			continue
		}
		fn(rec)
		f.st.Records++
		delivered++
	}
}
