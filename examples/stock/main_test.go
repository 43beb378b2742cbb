package main

import (
	"strings"
	"testing"
)

// Ticker 3's high-price query answers through its Hermit index.
func TestStockOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ticker 3 high in [566.20, 636.03]: 366 trading days (",
		"  first match: day=687 low=562.41 high=566.90\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
