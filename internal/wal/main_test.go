package wal

import (
	"testing"

	"hermit/internal/testtmp"
)

// TestMain keeps the tests' temporary files in memory (see testtmp).
func TestMain(m *testing.M) { testtmp.Main(m) }
