package journal

import (
	"sync"
	"testing"
	"time"
)

// TestFollowerLiveTail runs a Follower against a live writer that appends,
// rotates (Cut), and compacts (WriteSnapshot) concurrently. The follower
// must deliver every record exactly once, in order, and never observe a
// torn frame — the invariant hot-standby replay depends on.
func TestFollowerLiveTail(t *testing.T) {
	dir := t.TempDir()
	jr, err := Open(dir, Options{SyncDelay: time.Millisecond, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}

	const total = 3000
	var (
		mu   sync.Mutex
		seen []int
		// progress is signalled by the follower callback after every record,
		// so a waiter rechecks len(seen) only when it may have changed.
		progress = make(chan struct{}, 1)
	)
	// waitSeen blocks until the follower has delivered n records, or for
	// at most within, and reports how many it had delivered.
	waitSeen := func(n int, within time.Duration) int {
		timeout := time.NewTimer(within)
		defer timeout.Stop()
		for {
			mu.Lock()
			got := len(seen)
			mu.Unlock()
			if got >= n {
				return got
			}
			select {
			case <-progress:
			case <-timeout.C:
				return got
			}
		}
	}
	fl := NewFollower(dir, FollowerOptions{
		PollInterval: 200 * time.Microsecond,
		OnReset: func() {
			// A keeping-up follower must never be lapped by compaction;
			// the writer below snapshots only sealed, already-read history
			// slowly enough that resets would indicate a cursor bug.
			t.Error("unexpected follower reset")
			mu.Lock()
			seen = seen[:0]
			mu.Unlock()
		},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fl.Run(stop, func(r Record) {
			mu.Lock()
			seen = append(seen, r.TaskID)
			mu.Unlock()
			select {
			case progress <- struct{}{}:
			default:
			}
		})
	}()

	// Writer: append records 1..total; every 500 records force a rotation,
	// and every 1000 compact — but only history the follower has already
	// consumed (a real primary compacts old, settled state, not the
	// segment sealed a microsecond ago). Compacting unread segments is the
	// reset path, covered by TestFollowerCompactionReset.
	caughtUp := func(n int) {
		// This must be a hard barrier: returning early would let the writer
		// snapshot unread history, turning scheduler starvation into a
		// legitimate-looking reset that the test then misdiagnoses.
		if got := waitSeen(n, 60*time.Second); got < n {
			t.Fatalf("follower stalled: delivered %d records, writer waiting for %d", got, n)
		}
	}
	type cut struct {
		gen   uint64
		count int // records covered by segments <= gen
	}
	var cuts []cut
	for i := 1; i <= total; i++ {
		if _, err := jr.Append(&Record{Kind: KindTaskDone, TaskID: i}); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			g, err := jr.Cut()
			if err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, cut{gen: g, count: i})
		}
		if i%1000 == 0 && len(cuts) >= 2 {
			// Compact up to the previous cut, once the follower has read
			// past it.
			c := cuts[len(cuts)-2]
			caughtUp(c.count)
			if err := jr.WriteSnapshot(c.gen, []Record{{Kind: KindTaskDone, TaskID: -1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}

	// Wait for the follower to drain everything durable, then stop it.
	waitSeen(total, 10*time.Second)
	close(stop)
	wg.Wait()
	fl.Close()
	jr.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("follower delivered %d records, want %d", len(seen), total)
	}
	for i, id := range seen {
		if id != i+1 {
			t.Fatalf("record %d has TaskID %d, want %d (duplicated or reordered)", i, id, i+1)
		}
	}
	st := fl.Stats()
	if st.Skipped != 0 || st.TornTails != 0 {
		t.Fatalf("follower observed corruption on a healthy log: %+v", st)
	}
	if st.Rotations == 0 {
		t.Fatalf("writer rotated but follower crossed no segment boundary: %+v", st)
	}
}

// TestFollowerCompactionReset laps a stalled follower with compaction: the
// covered segments vanish before the follower reads them, so it must fire
// OnReset and rebuild from the covering snapshot rather than silently
// skipping the missing records.
func TestFollowerCompactionReset(t *testing.T) {
	dir := t.TempDir()
	jr, err := Open(dir, Options{SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Seed some history and let a follower consume the first segment only.
	for i := 1; i <= 10; i++ {
		if _, err := jr.Append(&Record{Kind: KindTaskDone, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jr.Cut(); err != nil {
		t.Fatal(err)
	}

	var got []int
	resets := 0
	fl := NewFollower(dir, FollowerOptions{OnReset: func() {
		resets++
		got = got[:0]
	}})
	fl.Poll(func(r Record) { got = append(got, r.TaskID) })
	if len(got) != 10 {
		t.Fatalf("pre-compaction poll delivered %d records, want 10", len(got))
	}

	// Now the follower stalls while the writer races ahead: two more
	// sealed segments, then a snapshot folding all of them away.
	for i := 11; i <= 20; i++ {
		if _, err := jr.Append(&Record{Kind: KindTaskDone, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jr.Cut(); err != nil {
		t.Fatal(err)
	}
	for i := 21; i <= 30; i++ {
		if _, err := jr.Append(&Record{Kind: KindTaskDone, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := jr.Cut()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot is the fold of records 1..30.
	if err := jr.WriteSnapshot(cut, []Record{{Kind: KindTaskDone, TaskID: 30}}); err != nil {
		t.Fatal(err)
	}
	// And the log keeps growing past the snapshot.
	for i := 31; i <= 35; i++ {
		if _, err := jr.Append(&Record{Kind: KindTaskDone, TaskID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}

	fl.Drain(func(r Record) { got = append(got, r.TaskID) })
	fl.Close()
	jr.Close()

	if resets != 1 {
		t.Fatalf("follower reset %d times, want 1", resets)
	}
	want := []int{30, 31, 32, 33, 34, 35} // snapshot fold, then live tail
	if len(got) != len(want) {
		t.Fatalf("post-reset records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-reset records = %v, want %v", got, want)
		}
	}
	if fl.Stats().Resets != 1 {
		t.Fatalf("stats resets = %d, want 1", fl.Stats().Resets)
	}
}
