package vine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
)

// Cachenames (§IV.B "Retaining Data"): every file in the system is named by
// content or by the definition of the task that produces it, never by an
// application-visible path. Consistent naming is what lets the manager
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

// CacheName identifies a file in the cluster.
type CacheName string

// Valid reports whether the cachename has a recognized form.
func (c CacheName) Valid() bool {
	s := string(c)
	switch {
	case strings.HasPrefix(s, "blob:"):
		return len(s) == 5+64
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
