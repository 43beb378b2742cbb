package server

import (
	"testing"

	"hermit/internal/leakcheck"
	"hermit/internal/testtmp"
)

// TestMain keeps temporary files in memory (testtmp) and fails the run
// when a test leaves a goroutine behind.
func TestMain(m *testing.M) {
	testtmp.Use()
	leakcheck.Main(m)
}
