package vine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"hepvine/internal/obs"
)

// Shared storage (§IV.A): the paper staged its datasets onto facility
// storage (HDFS, then VAST) that every node mounts, and tasks read them
// there. DeclareSharedFile is that data path. Declaring costs one stat, and
// the file is named by its stat identity (path, size, mtime, ctime, inode)
// instead of a hash of its bytes. A worker reads the file where it is: it
// stats the path before and after the call and keeps the result only if
// the identity still hashes to the name both times. A worker that cannot
// see the path falls back to the Work Queue path, a transfer from the
// manager, for that file from then on. DESIGN §5 states why a stat may
// stand for content and when it may not (the racy window).

// ErrSharedFileChanged fails every task that reads a shared file whose
// identity no longer matches the name its declaration gave it.
var ErrSharedFileChanged = errors.New("vine: shared file changed since its declaration")

// DeclareSharedFile registers a file on storage every worker mounts at the
// same path; path must be absolute and clean. A file changed too recently
// for its timestamps to prove it unchanged (within the racy window of its
// last change) is declared through DeclareFile instead and gets a
// content-addressed blob: name.
func (m *Manager) DeclareSharedFile(path string) (CacheName, error) {
	if !filepath.IsAbs(path) || filepath.Clean(path) != path {
		return "", fmt.Errorf("vine: shared file path %q is not absolute and clean", path)
	}
	now := sharedNow()
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	name, id, ok := nameOf(path, fi)
	if !ok {
		// Not a regular file, or no identity on this platform: DeclareFile
		// reports the first and hashes the second.
		return m.DeclareFile(path)
	}
	if cn, ok := m.keepReplayedName(path, id, now); ok {
		return cn, nil
	}
	if racy(id, now) {
		return m.DeclareFile(path)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fs, ok := m.files[name]
	if !ok {
		fs = &fileState{producer: -1}
		m.files[name] = fs
	}
	if !fs.onManager {
		fs.onManager, fs.mgrPath = true, path
		m.reps.SetSize(string(name), id.size)
		m.journalLocked(m.declRecord(name, fs))
	}
	return name, nil
}

// replayedPath is a content-named declaration of a path that journal
// replay re-verified by hash, with the stat identity seen around that hash
// and whether it was past the racy window then.
type replayedPath struct {
	name  CacheName
	id    fileID
	clean bool
}

// keepReplayedName hands a journal-resumed manager's DeclareSharedFile the
// blob: name its journal gave path while the file's identity is the one
// replay saw, so a run whose first incarnation declared a freshly written
// file by content still warm-hits after a restart. An identity that was
// racy when replay hashed it is hashed once more, now that it is not.
func (m *Manager) keepReplayedName(path string, id fileID, now time.Time) (CacheName, bool) {
	m.mu.Lock()
	rp, ok := m.replayedPaths[path]
	fs := m.files[rp.name]
	m.mu.Unlock()
	if !ok || rp.id != id || fs == nil {
		return "", false
	}
	if !rp.clean {
		if racy(id, now) {
			return "", false
		}
		if name, _, _, err := fileBlobName(path); err != nil || name != rp.name || !sameIdentity(path, id) {
			return "", false
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !fs.onManager || m.files[rp.name] != fs {
		return "", false
	}
	rp.clean = true
	m.replayedPaths[path] = rp
	return rp.name, true
}

// noteReplayedPath records a replayed blob: declaration of path whose hash
// re-verified; before is the stat taken ahead of that hash.
func (m *Manager) noteReplayedPath(path string, name CacheName, before os.FileInfo, now time.Time) {
	_, id, ok := nameOf(path, before)
	if ok && sameIdentity(path, id) {
		m.replayedPaths[path] = replayedPath{name: name, id: id, clean: !racy(id, now)}
	}
}

// sameIdentity reports whether path still has identity id.
func sameIdentity(path string, id fileID) bool {
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	_, now, ok := nameOf(path, fi)
	return ok && now == id
}

// sharedIntact reports whether the manager's own stat of a shared file
// still gives it the name it was declared under.
func sharedIntact(name CacheName, path string) bool {
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	now, _, ok := nameOf(path, fi)
	return ok && now == name
}

// inPlaceLocked reports whether worker wid reads name where it is: a
// shared file whose mount the worker has not been found to lack.
func (m *Manager) inPlaceLocked(name CacheName, wid int) bool {
	if !name.isShared() {
		return false
	}
	fs := m.files[name]
	return fs != nil && fs.onManager && !fs.noMount[wid]
}

// sharedStaleLocked handles a result a worker discarded because a shared
// input was missing or did not match its name around the call. The
// manager re-stats the file. If its copy still matches, the worker cannot
// see the mount: the task goes back to the queue without spending a retry,
// and this worker gets the file by transfer from now on. If it does not
// match, the file changed at the source and every task reading it fails.
func (m *Manager) sharedStaleLocked(rec *taskRecord, wid int, name CacheName, cause string) {
	fs := m.files[name]
	switch {
	case fs == nil: // unlinked since dispatch
		m.retryLocked(rec, errors.New(cause))
		return
	case !fs.onManager || !sharedIntact(name, fs.mgrPath):
		m.sharedChangedLocked(name, fs)
		return
	}
	if fs.noMount == nil {
		fs.noMount = make(map[int]bool)
	}
	fs.noMount[wid] = true
	if m.rec != nil {
		m.rec.Emit(obs.Event{Type: obs.EvSchedDecision, Task: rec.label(), Worker: workerNameOf(m.workers[wid]),
			Detail: "no shared mount: " + fs.mgrPath + " goes by transfer"})
	}
	m.releaseWorkerLocked(rec)
	m.enqueueReadyLocked(rec)
}

// sharedChangedLocked withdraws a shared file whose identity changed at
// the source and fails every unfinished task that reads it. Tasks that
// already finished read it under its old identity, checked around their
// call, and keep their results.
func (m *Manager) sharedChangedLocked(name CacheName, fs *fileState) {
	fs.onManager = false
	fs.refWaiters = nil
	err := sharedChangedErr(name, fs)
	m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: "shared", Detail: err.Error()})
	for _, rec := range m.tasks {
		if rec.state == TaskDone || rec.state == TaskFailed || !readsLocked(rec, name) {
			continue
		}
		m.sched.Dequeue(rec.label())
		m.releaseWorkerLocked(rec)
		m.failLocked(rec, err)
	}
}

func sharedChangedErr(name CacheName, fs *fileState) error {
	return fmt.Errorf("%w: %s (%s)", ErrSharedFileChanged, fs.mgrPath, name)
}

// readsLocked reports whether rec takes name as an input.
func readsLocked(rec *taskRecord, name CacheName) bool {
	for _, in := range rec.spec.Inputs {
		if in.CacheName == name {
			return true
		}
	}
	return false
}

// openShared opens a shared file for a transfer to a worker that cannot
// see the mount, computing its CRC-32C on the first serve. The open file
// must still have the identity its name hashes, before and after the CRC
// pass; otherwise the file changed at the source and nothing is served.
func (m *Manager) openShared(name CacheName, fs *fileState) (cacheBody, error) {
	m.mu.Lock()
	path, crc, crcOK := fs.mgrPath, fs.mgrCRC, fs.crcOK
	size := m.reps.Size(string(name))
	m.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return cacheBody{}, err
	}
	intact := func() bool {
		fi, err := f.Stat()
		if err != nil {
			return false
		}
		now, _, ok := nameOf(path, fi)
		return ok && now == name
	}
	if !intact() {
		f.Close()
		return cacheBody{}, sharedChangedErr(name, fs)
	}
	if !crcOK {
		c := crc32.New(castagnoli)
		_, err := io.Copy(c, f)
		if err == nil && !intact() {
			err = sharedChangedErr(name, fs)
		}
		if err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return cacheBody{}, err
		}
		crc = c.Sum32()
		m.mu.Lock()
		fs.mgrCRC, fs.crcOK = crc, true
		m.mu.Unlock()
	}
	return cacheBody{file: f, size: size, crc: crc}, nil
}
