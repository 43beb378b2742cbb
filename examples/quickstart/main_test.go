package main

import (
	"strings"
	"testing"
)

// The auto-created index is a Hermit index, and its answer is the same
// from run to run.
func TestQuickstartOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"index on fee built as: hermit\n",
		"query fee in [1.50, 1.53]: 1940 rows (",
		"  id=218 price=502.13 fee=1.5064\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
