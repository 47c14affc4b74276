//go:build !linux && !darwin

package cas

import "io/fs"

// statKey reports no key: this platform's stat data has no inode or
// ctime to trust, so every file is read on every scan.
func statKey(fs.FileInfo) (fileKey, bool) { return fileKey{}, false }
