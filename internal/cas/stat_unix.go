//go:build linux || darwin

package cas

import (
	"io/fs"
	"syscall"
)

// statKey returns a file's index key from its stat data; ok is false
// when the platform gives no inode and ctime to trust.
func statKey(fi fs.FileInfo) (k fileKey, ok bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return fileKey{}, false
	}
	return fileKey{
		dev: uint64(st.Dev), ino: st.Ino, size: fi.Size(), mode: uint32(fi.Mode()),
		mtime: fi.ModTime().UnixNano(), ctime: ctime(st).Nano(),
	}, true
}
