// Package ha is the hot-standby availability layer over the vine engine:
// a file-based leadership lease with epoch fencing, and a Standby that
// tails a primary manager's journal and takes over — binding a listen
// address, announcing itself, and dispatching from pre-folded replay
// state — the moment the primary's lease expires. It upgrades PR 5's
// durability (a human restarts the manager, the journal warms it) into
// availability (no human in the loop), which is what keeps a shared
// analysis facility near-interactive through a scheduler crash.
package ha

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Lease timing defaults. A holder renews every TTL/3 (two missed renewals
// of slack before expiry) and a standby polls at TTL/8 so takeover begins
// within a fraction of the TTL after expiry.
const (
	DefaultTTL = time.Second
)

// leaseFile is the on-disk lease: who holds leadership, under which
// fencing epoch, and until when. Written whole via tmp+rename so readers
// never see a torn lease.
type leaseFile struct {
	Holder  string `json:"holder"`
	Epoch   uint64 `json:"epoch"`
	Renewed int64  `json:"renewed_unix_nano"`
	TTLNano int64  `json:"ttl_nanos"`
}

// LeaseInfo is a point-in-time read of a lease file.
type LeaseInfo struct {
	Holder  string
	Epoch   uint64
	Renewed time.Time
	TTL     time.Duration
}

// Expiry is when the lease lapses unless renewed.
func (i LeaseInfo) Expiry() time.Time { return i.Renewed.Add(i.TTL) }

// Expired reports whether the lease has lapsed as of now.
func (i LeaseInfo) Expired(now time.Time) bool { return !now.Before(i.Expiry()) }

// ReadLease reads the lease file at path. os.IsNotExist(err) means no
// lease has ever been written — no primary has started.
func ReadLease(path string) (LeaseInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return LeaseInfo{}, err
	}
	var lf leaseFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return LeaseInfo{}, fmt.Errorf("ha: lease %s: %w", path, err)
	}
	return LeaseInfo{
		Holder:  lf.Holder,
		Epoch:   lf.Epoch,
		Renewed: time.Unix(0, lf.Renewed),
		TTL:     time.Duration(lf.TTLNano),
	}, nil
}

// Lease is held leadership: the holder renews the file every TTL/3 and
// watches for a usurper. The epoch is the fencing token — every
// acquisition, by anyone, increments it, so a holder that reads a higher
// epoch than its own knows leadership moved on and closes Lost.
//
// Release stops renewing but deliberately leaves the file in place: a
// cleanly-stopping primary looks exactly like a crashed one, and the
// standby waits out the full TTL either way. (Deleting the file would be
// an instant-failover optimization; modeling the crash path is worth
// more here.)
//
// Suspend/Resume model a stop-the-world pause (GC, SIGSTOP, a VM
// migration): renewals halt without the holder knowing. On Resume the
// next renewal re-reads the file, finds the standby's higher epoch, and
// fires Lost — the split-brain guard vine.WithLease turns into a
// dispatch fence.
type Lease struct {
	path   string
	holder string
	ttl    time.Duration
	epoch  uint64

	mu        sync.Mutex
	suspended bool
	lost      bool
	lostC     chan struct{}
	stopC     chan struct{}
	doneC     chan struct{} // closed when renewLoop has returned
	stopped   bool
}

// AcquireLease takes leadership at path. It fails if another holder's
// lease is still unexpired; an expired lease (or the caller's own) is
// usurped with an incremented epoch. The returned Lease is already
// renewing in the background.
func AcquireLease(path, holder string, ttl time.Duration) (*Lease, error) {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	now := time.Now()
	epoch := uint64(1)
	if info, err := ReadLease(path); err == nil {
		if info.Holder != holder && !info.Expired(now) {
			return nil, fmt.Errorf("ha: lease %s held by %q (epoch %d) until %s",
				path, info.Holder, info.Epoch, info.Expiry().Format(time.RFC3339Nano))
		}
		epoch = info.Epoch + 1
	} else if !os.IsNotExist(err) {
		// Unreadable lease: refuse to guess at leadership.
		return nil, err
	}
	l := &Lease{
		path:   path,
		holder: holder,
		ttl:    ttl,
		epoch:  epoch,
		lostC:  make(chan struct{}),
		stopC:  make(chan struct{}),
		doneC:  make(chan struct{}),
	}
	if err := l.write(now); err != nil {
		return nil, err
	}
	go l.renewLoop()
	return l, nil
}

// write persists the lease whole (tmp+rename) with a fresh renewal stamp.
// The temp file is unique per write, so two holders in one process (a
// primary and its usurper) never interleave bytes in a shared temp name.
func (l *Lease) write(now time.Time) error {
	dir := filepath.Dir(l.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ha: %w", err)
	}
	data, err := json.Marshal(leaseFile{
		Holder: l.holder, Epoch: l.epoch,
		Renewed: now.UnixNano(), TTLNano: int64(l.ttl),
	})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(l.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("ha: lease write: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ha: lease write: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ha: lease write: %w", err)
	}
	return nil
}

// renewLoop re-stamps the lease every TTL/3 — after first re-reading it.
// Finding a different epoch or holder means leadership was usurped while
// this holder wasn't looking; the lease is marked lost and never touched
// again (overwriting the usurper's file would be the split-brain).
func (l *Lease) renewLoop() {
	defer close(l.doneC)
	t := time.NewTicker(l.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-l.stopC:
			return
		case <-t.C:
		}
		l.mu.Lock()
		suspended := l.suspended
		l.mu.Unlock()
		if suspended {
			continue
		}
		info, err := ReadLease(l.path)
		switch {
		case err == nil && (info.Epoch != l.epoch || info.Holder != l.holder):
			l.markLost()
			return
		case err != nil && !os.IsNotExist(err):
			// Transient read failure: skip this renewal, try again.
			continue
		}
		// Still ours (or vanished — rewrite it; nobody else claimed it).
		if err := l.write(time.Now()); err != nil {
			continue
		}
	}
}

func (l *Lease) markLost() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.lost {
		l.lost = true
		close(l.lostC)
	}
}

// Lost is closed when the lease is observed held by someone else.
// Satisfies vine.Lease.
func (l *Lease) Lost() <-chan struct{} { return l.lostC }

// Holder names the lease owner. Satisfies vine.Lease.
func (l *Lease) Holder() string { return l.holder }

// Epoch is the fencing token of this acquisition. Satisfies vine.Lease.
func (l *Lease) Epoch() uint64 { return l.epoch }

// TTL reports the lease duration.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Suspend halts renewals without the holder "knowing" — the test and ops
// hook for modeling a stop-the-world pause.
func (l *Lease) Suspend() {
	l.mu.Lock()
	l.suspended = true
	l.mu.Unlock()
}

// Resume restarts renewals after Suspend. If the lease lapsed and was
// usurped during the pause, the next renewal detects it and fires Lost.
func (l *Lease) Resume() {
	l.mu.Lock()
	l.suspended = false
	l.mu.Unlock()
}

// Release stops renewing and returns once the renewal goroutine has
// exited, so no renewal writes the lease directory after Release. The
// file is left in place — see the type comment — so a successor still
// waits out the TTL.
func (l *Lease) Release() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		close(l.stopC)
	}
	l.mu.Unlock()
	<-l.doneC
}
