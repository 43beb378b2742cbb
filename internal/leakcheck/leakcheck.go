// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in with a TestMain that calls Main.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and then waits up to two seconds for the
// goroutine count to fall back to what it was before them. If it does not,
// Main prints the stacks of the goroutines the tests started and fails the
// run.
func Main(m *testing.M) {
	start, before := runtime.NumGoroutine(), stacks()
	code := m.Run()
	if code == 0 {
		if extra := settle(start, 2*time.Second); extra > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d more goroutines running after the tests than before:\n\n", extra)
			for id, stack := range stacks() {
				if _, ok := before[id]; !ok {
					fmt.Fprintf(os.Stderr, "%s\n\n", stack)
				}
			}
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits up to timeout for runtime.NumGoroutine to fall to n and
// returns how many goroutines it is still above it.
func settle(n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		extra := runtime.NumGoroutine() - n
		if extra <= 0 || time.Now().After(deadline) {
			return extra
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stacks returns the stack of every goroutine, keyed by its header's
// "goroutine N" prefix.
func stacks() map[string][]byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string][]byte{}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if id, _, ok := bytes.Cut(g, []byte(" [")); ok {
			out[string(id)] = g
		}
	}
	return out
}
