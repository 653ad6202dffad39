package ha

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"hepvine/internal/journal"
)

// TestLeaseConflictAndSuccession: a fresh lease excludes other holders;
// once it lapses a successor acquires it under a higher epoch.
func TestLeaseConflictAndSuccession(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "lease.json")
	ttl := 150 * time.Millisecond

	a, err := AcquireLease(path, "primary", ttl)
	if err != nil {
		t.Fatalf("acquire primary: %v", err)
	}
	if a.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", a.Epoch())
	}
	if _, err := AcquireLease(path, "standby", ttl); err == nil {
		t.Fatal("standby acquired a live lease")
	}

	// Release stops renewals but leaves the file; the successor still has
	// to wait out the TTL.
	a.Release()
	if _, err := AcquireLease(path, "standby", ttl); err == nil {
		t.Fatal("standby acquired immediately after release; should wait out TTL")
	}
	time.Sleep(ttl + 50*time.Millisecond)

	b, err := AcquireLease(path, "standby", ttl)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	defer b.Release()
	if b.Epoch() != 2 {
		t.Fatalf("successor epoch = %d, want 2", b.Epoch())
	}
	info, err := ReadLease(path)
	if err != nil || info.Holder != "standby" || info.Epoch != 2 {
		t.Fatalf("lease file = %+v, %v; want holder=standby epoch=2", info, err)
	}
}

// TestLeaseUsurpFiresLost: a paused holder whose lease lapses and is
// taken by someone else must observe the loss when it wakes up — the
// split-brain detection the manager's dispatch fence hangs off.
func TestLeaseUsurpFiresLost(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "lease.json")
	ttl := 120 * time.Millisecond

	a, err := AcquireLease(path, "primary", ttl)
	if err != nil {
		t.Fatalf("acquire primary: %v", err)
	}
	defer a.Release()
	a.Suspend() // stop-the-world pause
	time.Sleep(ttl + 50*time.Millisecond)

	b, err := AcquireLease(path, "usurper", ttl)
	if err != nil {
		t.Fatalf("usurp expired lease: %v", err)
	}
	defer b.Release()

	a.Resume()
	select {
	case <-a.Lost():
	case <-time.After(2 * time.Second):
		t.Fatal("paused-then-resumed holder never noticed the usurper")
	}
	select {
	case <-b.Lost():
		t.Fatal("usurper lost its own lease")
	default:
	}
}

// TestStandbyTakeover: a standby tails a journal written by a "primary",
// and when the primary's lease lapses it drains the tail, acquires the
// lease under a new epoch, and comes up as a live manager on its
// pre-chosen address with the replayed history.
func TestStandbyTakeover(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ttl := 200 * time.Millisecond

	jr, err := journal.Open(dir, journal.Options{SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	for tid := 1; tid <= 3; tid++ {
		spec := &journal.TaskSpec{Mode: "task", Library: "lib", Func: "f", Cores: 1}
		if _, err := jr.Append(&journal.Record{Kind: journal.KindTaskDef,
			TaskID: tid, DefHash: "h" + string(rune('0'+tid)), Spec: spec}); err != nil {
			t.Fatalf("append def: %v", err)
		}
		if _, err := jr.Append(&journal.Record{Kind: journal.KindTaskDone,
			TaskID: tid, DefHash: "h" + string(rune('0'+tid))}); err != nil {
			t.Fatalf("append done: %v", err)
		}
	}
	if err := jr.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	lease, err := AcquireLease(DefaultLeasePath(dir), "primary", ttl)
	if err != nil {
		t.Fatalf("acquire primary lease: %v", err)
	}

	// Pre-pick the standby's address the way a deployment would: it is
	// part of worker configuration, decided before any failure.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()

	sb, err := NewStandby(Config{JournalDir: dir, TTL: ttl, Addr: addr, Name: "standby-1"})
	if err != nil {
		t.Fatalf("new standby: %v", err)
	}
	defer sb.Stop()

	// While the primary renews, the standby must stay a follower.
	select {
	case <-sb.Ready():
		t.Fatalf("standby took over under a live lease (err=%v)", sb.Err())
	case <-time.After(2 * ttl):
	}

	// "Crash" the primary: stop renewing and close the journal.
	lease.Release()
	jr.Close()

	select {
	case <-sb.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never took over after lease expiry")
	}
	if err := sb.Err(); err != nil {
		t.Fatalf("standby failed: %v", err)
	}
	mgr := sb.Manager()
	if mgr == nil {
		t.Fatal("ready standby has no manager")
	}
	if got := mgr.Addr(); got != addr {
		t.Fatalf("takeover manager bound %s, want %s", got, addr)
	}
	if mgr.LeaseLost() {
		t.Fatal("fresh takeover manager already fenced")
	}
	if n := sb.Applied(); n < 6 {
		t.Fatalf("standby folded %d records, want >= 6", n)
	}
	info, err := ReadLease(DefaultLeasePath(dir))
	if err != nil || info.Holder != "standby-1" || info.Epoch != 2 {
		t.Fatalf("post-takeover lease = %+v, %v; want holder=standby-1 epoch=2", info, err)
	}
	mgr.Stop()
}
