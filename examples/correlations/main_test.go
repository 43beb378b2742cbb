package main

import (
	"strings"
	"testing"
)

// Auto index creation builds a Hermit index for the monotonic shapes and
// a B+-tree for the sine, and every index answers exactly.
func TestCorrelationsOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  linear   -> hermit index\n",
		"  sigmoid  -> hermit index\n",
		"  sine     -> btree index\n",
		"  linear   range query: 1954 rows via hermit (",
		"  sigmoid  range query: 629 rows via hermit (",
		"  sine     range query: 1427 rows via btree (",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
