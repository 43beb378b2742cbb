package main

import (
	"strings"
	"testing"

	"hermit/internal/testtmp"
)

// TestMain keeps the example's durable directories in memory (see
// testtmp).
func TestMain(m *testing.M) { testtmp.Main(m) }

// The follower serves the leader's writes, refuses its own, catches up
// and, promoted, takes writes.
func TestReplicaOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"read-your-writes point lookup: [[999 149 1]]\n",
		"direct write to the follower rejected: not the leader\n",
		"follower replica-1: acked LSN 1001, lag 0\n",
		"follower promoted: epoch 2\n",
		"rows on the promoted leader in [998,1001]: 3\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
