package vine

import (
	"os"
	"syscall"
)

// statID reads a file's identity from its stat result.
func statID(fi os.FileInfo) (fileID, bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return fileID{}, false
	}
	return fileID{size: fi.Size(), mtime: fi.ModTime().UnixNano(), ctime: st.Ctim.Nano(), ino: st.Ino}, true
}
