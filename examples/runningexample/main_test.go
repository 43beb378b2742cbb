package main

import (
	"strings"
	"testing"

	"hermit/internal/testtmp"
)

// TestMain keeps the walkthrough's durable directory in memory (see
// testtmp).
func TestMain(m *testing.M) { testtmp.Main(m) }

// The walkthrough's answers are the paper's running example end to end:
// the same (TIME, SP) answer through the composite Hermit index before the
// crash and after recovery, and every row back.
func TestRunningExampleOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const answer = "TIME in [5000,8000] AND SP in [102,109] -> 120 days (129 candidates, fp 7.0%)"
	for _, want := range []string{
		"before crash: " + answer + "\n",
		"after recovery: 15100 rows (checkpoint + 100 WAL-tail inserts)\n",
		"after recovery: " + answer + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
