// Package testtmp keeps a test binary's temporary files in memory. The
// durable tests create, fsync and unlink thousands of small files, and on a
// disk file system mounted with online discard one unlink of an fsynced file
// costs tens of milliseconds — minutes of a test run that a tmpfs does in
// seconds. A package opts in with a TestMain that calls Main, or Use before
// its own.
package testtmp

import (
	"os"
	"syscall"
	"testing"
)

const (
	shm        = "/dev/shm"
	tmpfsMagic = 0x01021994 // statfs f_type of a Linux tmpfs
	minFree    = 256 << 20  // far above the tens of MB a test run peaks at
)

// Main runs the package's tests after Use and exits with their status.
func Main(m *testing.M) {
	Use()
	os.Exit(m.Run())
}

// Use points TMPDIR, where t.TempDir and os.MkdirTemp create, at /dev/shm
// when that is a tmpfs directory with at least 256 MiB free, and otherwise
// leaves it alone.
func Use() {
	var st syscall.Statfs_t
	if fi, err := os.Stat(shm); err != nil || !fi.IsDir() || syscall.Statfs(shm, &st) != nil {
		return
	}
	if int64(st.Type) == tmpfsMagic && uint64(st.Bavail)*uint64(st.Bsize) >= minFree {
		os.Setenv("TMPDIR", shm)
	}
}
