package server

import (
	"testing"

	"hermit/internal/leakcheck"
)

// TestMain fails the run when a test leaves a goroutine behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
