package main

import (
	"strings"
	"testing"
)

// The advisor turns the scanned high-price column into a Hermit index the
// planner then routes through.
func TestAdvisorOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"before: planner serves \"high_3\" queries via scan (",
		": create-hermit on \"high_3\" hosted by \"low_3\"\n",
		"after: planner serves \"high_3\" via hermit\n",
		"query: 99 trading days matched via hermit (",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
