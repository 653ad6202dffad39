//go:build !linux

package vine

import "os"

// statID reports no identity off Linux: without ctime and inode a stat
// cannot stand for a file's content, so DeclareSharedFile hashes it and a
// worker fetches it.
func statID(os.FileInfo) (fileID, bool) { return fileID{}, false }
