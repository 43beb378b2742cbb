package main

import (
	"strings"
	"testing"

	"hermit/internal/testtmp"
)

// TestMain keeps the example's durable directories in memory (see
// testtmp).
func TestMain(m *testing.M) { testtmp.Main(m) }

// The Hermit range query's answer, and one of its rows read back from the
// page the checkpoint wrote with the value it has in memory.
func TestSensorOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sensor 5 in [40, 60]: 71 rows (",
		") via hermit\n",
		"key 1428: sensor 5 = 52.55 in memory, 52.55 in its page (1 page read, ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
