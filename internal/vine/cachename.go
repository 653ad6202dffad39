package vine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"time"
)

// Cachenames (§IV.B "Retaining Data"): every file in the system is named by
// content, by the definition of the task that produces it, or (for a file
// read in place from shared storage) by its stat identity, never by an
// application-visible path alone. Consistent naming is what lets the manager
// treat replicas on different workers as interchangeable, schedule tasks
// where their inputs already live, and regenerate lost outputs by
// re-running the producing task — the re-executed task's outputs get the
// same cachename, so waiting consumers need no rewiring.
//
// Forms:
//
//	blob:<sha256>          content-addressed data (declared buffers/files)
//	out:<sha256>:<name>    the named output of the task whose definition
//	                       hashes to <sha256>
//	shared:<sha256>        a file on shared storage, by the hash of its
//	                       path, size, mtime, ctime and inode (DESIGN §5)

// CacheName identifies a file in the cluster.
type CacheName string

// Valid reports whether the cachename has a recognized form.
func (c CacheName) Valid() bool {
	s := string(c)
	switch {
	case strings.HasPrefix(s, "blob:"):
		return len(s) == 5+64
	case strings.HasPrefix(s, "shared:"):
		return len(s) == 7+64
	case strings.HasPrefix(s, "out:"):
		rest := s[4:]
		i := strings.IndexByte(rest, ':')
		return i == 64 && len(rest) > 65
	default:
		return false
	}
}

// blobName content-addresses a byte slice.
func blobName(data []byte) CacheName {
	h := sha256.Sum256(data)
	return CacheName("blob:" + hex.EncodeToString(h[:]))
}

// fileBlobName content-addresses a file on disk by streaming its content,
// returning its size and, from the same read pass, the CRC-32C the
// transfer server stores for it.
func fileBlobName(path string) (CacheName, int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()
	h, c := sha256.New(), crc32.New(castagnoli)
	n, err := io.Copy(io.MultiWriter(h, c), f)
	if err != nil {
		return "", 0, 0, err
	}
	return CacheName("blob:" + hex.EncodeToString(h.Sum(nil))), n, c.Sum32(), nil
}

// fileID is the stat identity of a file on shared storage: what a
// rewrite changes even when it keeps the size. ctime is in it because
// nothing but a change to the inode sets it, so a rewrite that restores
// the mtime (touch -d, rsync -t) still changes the identity.
type fileID struct {
	size, mtime, ctime int64
	ino                uint64
}

// sharedName names a shared-storage file by its path and identity.
func sharedName(path string, id fileID) CacheName {
	b := make([]byte, 0, len(path)+33)
	b = append(append(b, path...), 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(id.size))
	b = binary.LittleEndian.AppendUint64(b, uint64(id.mtime))
	b = binary.LittleEndian.AppendUint64(b, uint64(id.ctime))
	b = binary.LittleEndian.AppendUint64(b, id.ino)
	h := sha256.Sum256(b)
	return CacheName("shared:" + hex.EncodeToString(h[:]))
}

// nameOf names a shared-storage file from its stat result. ok is false
// for anything but a regular file, and where the platform does not report
// a full identity.
func nameOf(path string, fi os.FileInfo) (CacheName, fileID, bool) {
	if !fi.Mode().IsRegular() {
		return "", fileID{}, false
	}
	id, ok := statID(fi)
	if !ok {
		return "", fileID{}, false
	}
	return sharedName(path, id), id, true
}

// isShared reports whether the cachename names a shared-storage file.
func (c CacheName) isShared() bool { return strings.HasPrefix(string(c), "shared:") }

// racyWindow is how long after its last change a file's timestamps take
// to prove it unchanged. A file's mtime and ctime come from the kernel's
// coarse clock, which trails the wall clock by at most one tick (10 ms at
// HZ=100), so a rewrite in the same tick as the change we saw can leave
// size, mtime, ctime and inode all as they were. Once the tick is past,
// any rewrite stamps a later ctime. The window covers the tick with room
// for clock skew between the host that stamps the file (a file server) and
// the manager. Timestamps with no sub-second part suggest a filesystem
// that stores whole seconds (or FAT's two); those get a window of two
// seconds.
const (
	racyWindow       = 100 * time.Millisecond
	racyWindowCoarse = 2 * time.Second
)

// racy reports whether id is too recent at now to stand for its content.
func racy(id fileID, now time.Time) bool {
	w := racyWindow
	if id.mtime%1e9 == 0 && id.ctime%1e9 == 0 {
		w = racyWindowCoarse
	}
	return now.UnixNano()-max(id.mtime, id.ctime) < int64(w)
}

// sharedNow is the clock racy is judged by; tests move it forward instead
// of waiting for files to age.
var sharedNow = time.Now

// taskDefHash hashes the semantic definition of a task: mode, library,
// function, args, and input cachenames. Two tasks with the same definition
// produce identically named outputs.
func taskDefHash(mode, library, fn string, args []byte, inputs []FileRef) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00", mode, library, fn)
	h.Write(args)
	h.Write([]byte{0})
	for _, in := range inputs {
		fmt.Fprintf(h, "%s=%s\x00", in.Name, in.CacheName)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputName derives the cachename of a task output.
func outputName(defHash, output string) CacheName {
	return CacheName("out:" + defHash + ":" + output)
}

// cachePathSafe converts a cachename to a filesystem-safe relative path.
func cachePathSafe(c CacheName) string {
	return strings.ReplaceAll(string(c), ":", "_")
}
