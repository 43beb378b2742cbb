package main

import (
	"strings"
	"testing"

	"hermit/internal/testtmp"
)

// TestMain keeps the example's durable directories in memory (see
// testtmp).
func TestMain(m *testing.M) { testtmp.Main(m) }

// Every wire operation answers as the example expects.
func TestServerOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"range price in [100,104]: 100 rows\n",
		"pipelined 100 point queries: 100 hits, ",
		"atomic batch: insert err=<nil>, delete found=true\n",
		"conflicting commit rejected: true\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
