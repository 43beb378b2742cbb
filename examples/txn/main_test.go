package main

import (
	"strings"
	"testing"
)

// The transfer is atomic under snapshots, the second writer loses, and the
// failing batch applies nothing.
func TestTxnOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"account 0: 100 before,  70 after\n",
		"account 1: 100 before, 130 after\n",
		"second writer aborted: ",
		"account 99 was rolled back with the failing batch\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
