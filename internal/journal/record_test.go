package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hepvine/internal/wire"
)

// kindRecords returns, for every Kind, the record the manager writes for it
// with every field it sets populated, plus a def whose spec uses every
// TaskSpec field and records with empty, non-nil maps and slices.
func kindRecords() []*Record {
	full := defRec(7)
	full.Spec.Inputs = append(full.Spec.Inputs, FileRef{Name: "cal", CacheName: "url:xrootd://a/b"})
	full.Spec.Outputs = append(full.Spec.Outputs, "cutflow")
	full.Spec.Cores, full.Spec.Memory, full.Spec.Queue = 2, 1<<30, "analysis"
	full.Spec.Priority, full.Spec.DeadlineNanos = -3, int64(90*time.Second)
	full.Outputs["cutflow"] = "out:h7:cutflow"
	return []*Record{
		defRec(1),
		full,
		{Kind: KindDispatch, TaskID: 1, Worker: "w0"},
		doneRec(1),
		{Kind: KindTaskDone, TaskID: 2, Worker: "w1", ExecNanos: 1234567, SetupNanos: 89,
			OutputSizes: map[string]int64{"out:h2:b": 0, "out:h2:a": 1 << 40, "out:h2:c": -1}},
		{Kind: KindTaskFail, TaskID: 3, Error: "vine: task 3 failed: exit status 1"},
		{Kind: KindFileDecl, CacheName: "blob:abc", Size: 3, Path: "/data/x.root"},
		{Kind: KindFileDecl, CacheName: "blob:def", Size: 2, Data: []byte{0, 0xff}},
		{Kind: KindUnlink, CacheName: "out:h3:hist"},
		{Kind: KindLease, TaskID: 4, Worker: "foreman-1"},
		{Kind: KindTaskDef, TaskID: 5, Spec: &TaskSpec{}, Outputs: map[string]string{}},
		{Kind: KindTaskDone, TaskID: -1, OutputSizes: map[string]int64{}, Data: []byte{}},
		{Kind: KindTaskDef, Spec: &TaskSpec{Args: []byte{}, Inputs: []FileRef{}, Outputs: []string{}}},
	}
}

// jsonFrame frames rec the way journals written before the binary body
// did: a JSON payload.
func jsonFrame(t testing.TB, rec *Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(payload)
}

// rawFrame frames payload with a correct header.
func rawFrame(payload []byte) []byte {
	h := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
	return append(h, payload...)
}

// The binary and JSON bodies of every kind of record decode to the same
// Record, including which maps and slices come back nil, and the binary
// decode does not alias its input.
func TestBinaryRecordMatchesJSON(t *testing.T) {
	seen := map[Kind]bool{}
	for _, rec := range kindRecords() {
		seen[rec.Kind] = true
		frame := mustFrame(t, rec)
		fromBin, err := decodeRecord(frame[frameHeader:])
		if err != nil {
			t.Fatalf("%s: binary decode: %v", rec.Kind, err)
		}
		fromJSON, err := decodeRecord(jsonFrame(t, rec)[frameHeader:])
		if err != nil {
			t.Fatalf("%s: JSON decode: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Errorf("%s: binary decodes to\n%+v\nJSON to\n%+v", rec.Kind, fromBin, fromJSON)
		}
		again, err := appendFrame(nil, &fromBin)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoding the decoded record changed its bytes (%v)", rec.Kind, err)
		}
		for i := range frame {
			frame[i] = 0xff
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Errorf("%s: decoded record aliases the frame buffer", rec.Kind)
		}
	}
	for _, k := range kindTags[1:] {
		if !seen[k] {
			t.Errorf("no record of kind %s tested", k)
		}
	}
	if _, err := appendFrame(nil, &Record{Kind: "bogus"}); err == nil {
		t.Error("appended a record of an unknown kind")
	}
}

// A segment written partly by an older build (JSON bodies) and partly by
// this one replays whole, through Replay and through a Follower.
func TestReplayReadsJSONJournal(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	var want []Record
	for i, rec := range kindRecords() {
		if i%2 == 0 {
			seg = append(seg, jsonFrame(t, rec)...)
		} else {
			seg = append(seg, mustFrame(t, rec)...)
		}
		back, err := decodeRecord(jsonFrame(t, rec)[frameHeader:])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, back)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, testOptions())
	got, st := collect(t, j)
	if st.Skipped != 0 || st.TornTails != 0 {
		t.Fatalf("mixed segment reported corruption: %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records, want %d:\n%+v", len(got), len(want), got)
	}

	fl := NewFollower(dir, FollowerOptions{})
	defer fl.Close()
	var followed []Record
	fl.Drain(func(r Record) { followed = append(followed, r) })
	if fst := fl.Stats(); fst.Skipped != 0 || !reflect.DeepEqual(followed, want) {
		t.Fatalf("follower delivered %d records (%+v), want %d", len(followed), fst, len(want))
	}
}

func TestRecordDecodeRejects(t *testing.T) {
	dispatch := mustFrame(t, &Record{Kind: KindDispatch, TaskID: 1, Worker: "w0"})[frameHeader:]
	// A def with a spec: the presence byte follows TaskID and DefHash.
	def := mustFrame(t, &Record{Kind: KindTaskDef, TaskID: 1, Spec: &TaskSpec{}})[frameHeader:]
	badSpec := append([]byte(nil), def...)
	badSpec[3] = 2
	// Outputs with two keys out of order.
	unsorted := []byte{3, 0, 0, 0, 2, 1, 'b', 0, 1, 'a', 0}
	forged := binary.AppendUvarint([]byte{3, 0, 0, 0}, 1<<40)
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"tag 0", "unknown record tag", []byte{0}},
		{"tag past the kinds", "unknown record tag", []byte{byte(len(kindTags)), 0}},
		{"tag 0x1f", "unknown record tag", []byte{0x1f}},
		{"tag only", wire.ErrTruncated.Error(), []byte{1}},
		{"truncated varint", wire.ErrTruncated.Error(), []byte{2, 0x80}},
		{"truncated record", wire.ErrTruncated.Error(), dispatch[:len(dispatch)-1]},
		{"string past the end", wire.ErrTruncated.Error(), []byte{2, 0, 5, 'a'}},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), dispatch...), 0)},
		{"spec presence byte 2", "bool byte 2", badSpec},
		{"unsorted outputs", "out of order", unsorted},
		{"forged outputs count", wire.ErrTruncated.Error(), forged},
		{"JSON array", "cannot unmarshal", []byte(`[1]`)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(tc.body)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %+v, %v; want an error containing %q", tc.name, rec, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.name, len(tc.body), got)
		}
	}
}

// A flush holds flushMu across its write and fsync; Append must not wait
// for it.
func TestAppendDoesNotWaitForFlush(t *testing.T) {
	j := mustOpen(t, t.TempDir(), testOptions())
	j.flushMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := j.Append(defRec(1))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		err = errors.New("Append waited for the flush lock")
	}
	j.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, j); len(got) != 1 || got[0].TaskID != 1 {
		t.Fatalf("record appended during a flush was lost: %+v", got)
	}
}

// Sync is a barrier under concurrent Appends and group-commit flushes:
// once it returns, every record its caller appended before it is in the
// segment file.
func TestSyncBarrierUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SyncDelay: 100 * time.Microsecond, NoFsync: true})
	seg := lastSegment(t, dir)
	const writers, perWriter, syncEvery = 4, 200, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				id := w*perWriter + i
				if _, err := j.Append(&Record{Kind: KindDispatch, TaskID: id, Worker: "w"}); err != nil {
					t.Error(err)
					return
				}
				if i%syncEvery != 0 {
					continue
				}
				if err := j.Sync(); err != nil {
					t.Error(err)
					return
				}
				onDisk := map[int]bool{}
				replaySegment(seg, func(r Record) { onDisk[r.TaskID] = true })
				for k := w*perWriter + 1; k <= id; k++ {
					if !onDisk[k] {
						t.Errorf("writer %d: record %d appended before Sync is not on disk after it", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, j)
	if len(got) != writers*perWriter || st.Skipped != 0 || st.TornTails != 0 {
		t.Fatalf("replayed %d records (%+v), want %d", len(got), st, writers*perWriter)
	}
}

// A group commit takes its batch under mu and writes it under flushMu
// alone; a Sync that starts in between must wait for that write, or it
// would return before records appended ahead of it are on disk.
func TestSyncWaitsForFlushInProgress(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SyncDelay: time.Hour, NoFsync: true})
	seg := lastSegment(t, dir)
	if _, err := j.Append(defRec(1)); err != nil {
		t.Fatal(err)
	}
	// Stage a flush caught between taking the batch and writing it.
	j.flushMu.Lock()
	j.mu.Lock()
	batch := j.pending
	j.pending = nil
	j.mu.Unlock()
	synced := make(chan int64, 1)
	go func() {
		if err := j.Sync(); err != nil {
			t.Error(err)
		}
		n, _, _ := replaySegment(seg, func(Record) {})
		synced <- n
	}()
	early := false
	select {
	case <-synced:
		early = true
	case <-time.After(100 * time.Millisecond):
	}
	_, err := j.f.Write(batch)
	j.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if early {
		t.Fatal("Sync returned while a flush still held the batch it covers")
	}
	if n := <-synced; n != 1 {
		t.Fatalf("%d records on disk after Sync, want 1", n)
	}
}

// benchRecords is one task's journal traffic: its def, dispatch and done.
func benchRecords() []*Record {
	return []*Record{defRec(4242), {Kind: KindDispatch, TaskID: 4242, Worker: "w0"}, doneRec(4242)}
}

func BenchmarkJournalAppend(b *testing.B) {
	j, err := Open(b.TempDir(), Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := benchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalReplay(b *testing.B) {
	j, err := Open(b.TempDir(), Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	const tasks = 2000
	for i := 0; i < tasks; i++ {
		for _, r := range benchRecords() {
			r.TaskID = i
			if _, err := j.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		st, err := j.Replay(func(Record) {})
		if err != nil {
			b.Fatal(err)
		}
		n += st.Replayed
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
}
