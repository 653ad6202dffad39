package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"
)

// testOptions keeps unit tests fast and deterministic: no fsync, a tiny
// group-commit window, and a small segment size so rotation is exercised.
func testOptions() Options {
	return Options{SegmentBytes: 1 << 20, SyncDelay: time.Millisecond, NoFsync: true}
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func doneRec(id int) *Record {
	return &Record{
		Kind:        KindTaskDone,
		TaskID:      id,
		Worker:      "w0",
		OutputSizes: map[string]int64{fmt.Sprintf("out:h%d:hist", id): int64(100 + id)},
	}
}

func defRec(id int) *Record {
	return &Record{
		Kind:    KindTaskDef,
		TaskID:  id,
		DefHash: fmt.Sprintf("h%d", id),
		Spec: &TaskSpec{
			Mode: "process", Library: "lib", Func: "fn",
			Args:    []byte(`{"i":` + strconv.Itoa(id) + `}`),
			Inputs:  []FileRef{{Name: "data", CacheName: "blob:abc"}},
			Outputs: []string{"hist"},
		},
		Outputs: map[string]string{"hist": fmt.Sprintf("out:h%d:hist", id)},
	}
}

func collect(t *testing.T, j *Journal) ([]Record, Stats) {
	t.Helper()
	var recs []Record
	st, err := j.Replay(func(r Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions())
	var want []Record
	for i := 0; i < 50; i++ {
		d := defRec(i)
		if _, err := j.Append(d); err != nil {
			t.Fatalf("append: %v", err)
		}
		want = append(want, *d)
		if i%2 == 0 {
			r := doneRec(i)
			if _, err := j.Append(r); err != nil {
				t.Fatalf("append: %v", err)
			}
			want = append(want, *r)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, st := collect(t, j)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d records, want %d", len(got), len(want))
	}
	if st.Skipped != 0 || st.TornTails != 0 {
		t.Fatalf("clean log reported corruption: %+v", st)
	}
}

func TestReopenReplaysAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions())
	for i := 0; i < 10; i++ {
		j.Append(defRec(i))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Reopen appends to a fresh segment; replay must see both generations.
	j2 := mustOpen(t, dir, testOptions())
	for i := 10; i < 15; i++ {
		j2.Append(defRec(i))
	}
	j2.Sync()
	got, _ := collect(t, j2)
	if len(got) != 15 {
		t.Fatalf("replayed %d records across reopen, want 15", len(got))
	}
	for i, r := range got {
		if r.TaskID != i {
			t.Fatalf("record %d has TaskID %d, want %d (order lost across segments)", i, r.TaskID, i)
		}
	}
}

// lastSegment returns the path of the newest wal segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", segs[len(segs)-1]))
}

func TestTornTailStopsAtLastValidFrame(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions())
	for i := 0; i < 20; i++ {
		j.Append(defRec(i))
	}
	j.Sync()
	j.Close()

	// Simulate a crash mid-append: truncate the segment so the last frame
	// is partial (cut 5 bytes into its payload).
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, testOptions())
	got, st := collect(t, j2)
	if len(got) != 19 {
		t.Fatalf("replayed %d records after torn tail, want 19", len(got))
	}
	if st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	if st.Skipped != 0 {
		t.Fatalf("torn tail misreported as skipped frame: %+v", st)
	}
	// New appends after the torn tail land in a fresh segment and survive.
	j2.Append(defRec(99))
	j2.Sync()
	got2, _ := collect(t, j2)
	if len(got2) != 20 || got2[19].TaskID != 99 {
		t.Fatalf("append after torn-tail reopen lost: %d records", len(got2))
	}
}

func TestBitFlipSkipsFrameAndCounts(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions())
	for i := 0; i < 10; i++ {
		j.Append(defRec(i))
	}
	j.Sync()
	j.Close()

	// Flip one bit inside the payload of the third frame.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 2; i++ { // skip two frames
		n := binary.LittleEndian.Uint32(data[off : off+4])
		off += frameHeader + int(n)
	}
	data[off+frameHeader+3] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, testOptions())
	got, st := collect(t, j2)
	if len(got) != 9 {
		t.Fatalf("replayed %d records, want 9 (one skipped)", len(got))
	}
	if st.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", st.Skipped)
	}
	// The frames after the flipped one must still replay: resync worked.
	var ids []int
	for _, r := range got {
		ids = append(ids, r.TaskID)
	}
	want := []int{0, 1, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("surviving TaskIDs = %v, want %v", ids, want)
	}
}

// applyState reduces a record stream to the materialized state a manager
// would reconstruct: latest def/done per task, live file declarations.
type logicalState struct {
	Defs  map[int]Record
	Dones map[int]Record
	Files map[string]Record
}

func applyState(recs []Record) logicalState {
	s := logicalState{Defs: map[int]Record{}, Dones: map[int]Record{}, Files: map[string]Record{}}
	for _, r := range recs {
		switch r.Kind {
		case KindTaskDef:
			s.Defs[r.TaskID] = r
		case KindTaskDone:
			s.Dones[r.TaskID] = r
		case KindFileDecl:
			s.Files[r.CacheName] = r
		case KindUnlink:
			delete(s.Files, r.CacheName)
		}
	}
	return s
}

// compact emulates the manager's snapshot builder: one def (+done) per
// completed task, one decl per live file — the idempotent upsert set.
func compact(recs []Record) []Record {
	s := applyState(recs)
	var out []Record
	var ids []int
	for id := range s.Defs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, s.Defs[id])
		if d, ok := s.Dones[id]; ok {
			out = append(out, d)
		}
	}
	var names []string
	for n := range s.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, s.Files[n])
	}
	return out
}

func TestSnapshotTailEquivalence(t *testing.T) {
	// Build the same record stream twice: journal A keeps the full log,
	// journal B compacts a prefix into a snapshot. Replay must materialize
	// identical state, and B must have dropped the covered segments.
	stream := func() []*Record {
		var rs []*Record
		rs = append(rs, &Record{Kind: KindFileDecl, CacheName: "blob:abc", Size: 3, Path: "/tmp/x"})
		for i := 0; i < 30; i++ {
			rs = append(rs, defRec(i))
			if i < 20 {
				rs = append(rs, doneRec(i))
			}
		}
		rs = append(rs, &Record{Kind: KindUnlink, CacheName: "out:h3:hist"})
		return rs
	}()
	cut := 40 // snapshot covers this prefix

	dirA, dirB := t.TempDir(), t.TempDir()
	a := mustOpen(t, dirA, testOptions())
	b := mustOpen(t, dirB, testOptions())
	for i, r := range stream {
		if _, err := a.Append(r); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(r); err != nil {
			t.Fatal(err)
		}
		if i == cut-1 {
			g, err := b.Cut()
			if err != nil {
				t.Fatalf("cut: %v", err)
			}
			var prefix []Record
			for _, p := range stream[:cut] {
				prefix = append(prefix, *p)
			}
			if err := b.WriteSnapshot(g, compact(prefix)); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	a.Sync()
	b.Sync()

	recsA, _ := collect(t, a)
	recsB, stB := collect(t, b)
	if stB.Skipped != 0 || stB.TornTails != 0 {
		t.Fatalf("snapshot replay reported corruption: %+v", stB)
	}
	if !reflect.DeepEqual(applyState(recsA), applyState(recsB)) {
		t.Fatalf("replay(snapshot+tail) != replay(full log): %d vs %d records", len(recsB), len(recsA))
	}
	if b.Stats().Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", b.Stats().Snapshots)
	}
	// Covered segments must be gone from B's directory.
	segs, snaps, err := scanDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshot files = %v, want exactly one", snaps)
	}
	for _, g := range segs {
		if g <= snaps[0] {
			t.Fatalf("segment %d should have been compacted away (snap %d)", g, snaps[0])
		}
	}
}

func TestStaleSnapshotIsNoop(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOptions())
	for i := 0; i < 5; i++ {
		j.Append(defRec(i))
	}
	g, err := j.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(g, nil); err != nil {
		t.Fatal(err)
	}
	// Same (now stale) generation again: must not clobber anything.
	if err := j.WriteSnapshot(g, []Record{*defRec(99)}); err != nil {
		t.Fatal(err)
	}
	if j.Stats().Snapshots != 1 {
		t.Fatalf("stale snapshot was written: %+v", j.Stats())
	}
	// Covering the active segment is refused too.
	if err := j.WriteSnapshot(j.gen, nil); err != nil {
		t.Fatal(err)
	}
	if j.Stats().Snapshots != 1 {
		t.Fatalf("active-segment snapshot was written: %+v", j.Stats())
	}
}

// CompactionDue fires once the bytes written since the last Cut reach
// max(SegmentBytes, newest snapshot size): a Cut resets the count, a
// snapshot larger than a segment raises the bar to its own size, and a
// reopened journal counts the tail it inherited.
func TestCompactionDue(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentBytes = 4 << 10
	j := mustOpen(t, dir, opts)
	next := 0
	// appendUntilDue appends synced defs until a compaction is due and
	// returns the bytes written since the call.
	appendUntilDue := func() int64 {
		t.Helper()
		before := j.Stats().AppendedBytes
		for !j.CompactionDue() {
			if _, err := j.Append(defRec(next)); err != nil {
				t.Fatal(err)
			}
			next++
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return j.Stats().AppendedBytes - before
	}
	frame := int64(len(mustFrame(t, defRec(0))))
	if n := appendUntilDue(); n < opts.SegmentBytes || n >= opts.SegmentBytes+2*frame {
		t.Fatalf("first compaction due after %d bytes, want one segment (%d)", n, opts.SegmentBytes)
	}
	g, err := j.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if j.CompactionDue() {
		t.Fatal("compaction still due right after a cut")
	}
	// A snapshot three segments large: the next compaction waits for a tail
	// of that size, not one segment.
	var snap []Record
	var snapBytes int64
	for k := 0; snapBytes < 3*opts.SegmentBytes; k++ {
		snap = append(snap, *defRec(k))
		snapBytes += int64(len(mustFrame(t, defRec(k))))
	}
	if err := j.WriteSnapshot(g, snap); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.SnapshotBytes != snapBytes {
		t.Fatalf("SnapshotBytes = %d, want %d", st.SnapshotBytes, snapBytes)
	}
	if n := appendUntilDue(); n < snapBytes || n >= snapBytes+2*frame {
		t.Fatalf("compaction after a %d-byte snapshot due after %d bytes", snapBytes, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j2 := mustOpen(t, dir, opts); !j2.CompactionDue() {
		t.Fatal("reopened journal forgot the tail written after its snapshot")
	}
}

func mustFrame(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := appendFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameCorruptionFuzz hammers replay with randomized single-byte
// corruption. Deterministic by default; `make journal-fuzz` sets
// JOURNAL_FUZZ_SEED=0 to draw a fresh seed per run (logged for replay).
func TestFrameCorruptionFuzz(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("JOURNAL_FUZZ_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad JOURNAL_FUZZ_SEED %q: %v", s, err)
		}
		if v == 0 {
			v = time.Now().UnixNano()
		}
		seed = v
	}
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	for round := 0; round < 32; round++ {
		dir := t.TempDir()
		j := mustOpen(t, dir, testOptions())
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			j.Append(defRec(i))
		}
		j.Sync()
		j.Close()

		seg := lastSegment(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		tore := false
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data)+1)] // also tear the tail
			tore = true
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		j2 := mustOpen(t, dir, testOptions())
		got, st := collect(t, j2)
		j2.Close()

		// Invariant 1: surviving records are a subsequence of the originals
		// (no record is invented, reordered, or half-applied).
		next := 0
		for _, r := range got {
			found := false
			for next < n {
				if r.TaskID == next {
					want := defRec(next)
					if !reflect.DeepEqual(r, *want) {
						t.Fatalf("round %d (seed %d): record %d mutated by corruption yet passed CRC", round, seed, next)
					}
					found = true
					next++
					break
				}
				next++
			}
			if !found {
				t.Fatalf("round %d (seed %d): replay invented or reordered record %d", round, seed, r.TaskID)
			}
		}
		// Invariant 2: every lost record is accounted for by the stats —
		// except when we tore the tail at an exact frame boundary, which is
		// indistinguishable from a shorter log (the WAL contract only
		// covers records before the last Sync).
		if !tore && len(got) < n && st.Skipped == 0 && st.TornTails == 0 {
			t.Fatalf("round %d (seed %d): lost %d records with no corruption counted: %+v",
				round, seed, n-len(got), st)
		}
	}
}

// FuzzReplaySegment feeds arbitrary bytes through the segment reader's
// frame loop, and through the record decoder as one bare payload: both must
// terminate without panicking, the reader must never yield more frames than
// it read, and every record that decodes must re-encode to bytes that
// decode to the same record.
func FuzzReplaySegment(f *testing.F) {
	var bin, js []byte
	for _, rec := range kindRecords() {
		frame := mustFrame(f, rec)
		bin = append(bin, frame...)
		js = append(js, jsonFrame(f, rec)...)
		f.Add(frame[frameHeader:])
	}
	f.Add(bin)
	f.Add(js)
	f.Add(append(js[:len(js):len(js)], bin...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(rawFrame([]byte("null")))

	f.Fuzz(func(t *testing.T, data []byte) {
		replayed, skipped, torn := replayFrames(bytes.NewReader(data), func(r Record) { checkReencode(t, r, false) })
		if replayed < 0 || skipped < 0 || torn < 0 {
			t.Fatalf("negative stats: %d %d %d", replayed, skipped, torn)
		}
		if replayed*frameHeader > int64(len(data)) {
			t.Fatalf("replayed %d frames from %d bytes", replayed, len(data))
		}
		if rec, err := decodeRecord(data); err == nil {
			checkReencode(t, rec, data[0] < 0x20)
		}
	})
}

// checkReencode asserts that a decoded record re-encodes to bytes that
// decode to a record with the same encoding; for a record decoded from a
// binary body (fromBinary), to the same record. A JSON body may decode an
// empty map or slice as non-nil, which the binary body returns as nil.
func checkReencode(t *testing.T, r Record, fromBinary bool) {
	t.Helper()
	frame, err := appendFrame(nil, &r)
	if err != nil {
		if _, known := kindTag(r.Kind); known {
			t.Fatalf("re-encoding a decoded %s record: %v", r.Kind, err)
		}
		return // only a JSON body can name a kind outside the tag table
	}
	back, err := decodeRecord(frame[frameHeader:])
	if err != nil {
		t.Fatalf("decoding a re-encoded %s record: %v", r.Kind, err)
	}
	if again, err := appendFrame(nil, &back); err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("%s record re-encodes differently after a round trip (%v)", r.Kind, err)
	}
	if fromBinary && !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip changed a %s record:\n%+v\n%+v", r.Kind, r, back)
	}
}
