package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the leader-writes protocol: who puts the frames in the file, who
// is released when, and what a crash, a failed write and a racing Close leave
// behind.

var allPolicies = []Options{
	{Policy: SyncNever},
	{Policy: SyncGroup, GroupInterval: 200 * time.Microsecond},
	{Policy: SyncAlways},
}

// writeSyscalls reads the process's count of write-family system calls.
func writeSyscalls(t *testing.T) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("/proc/self/io has no syscw line")
	return 0
}

// TestUncontendedCommitMakesNoWrite: under SyncNever an Append nobody
// competes with, and a run of 64 Submits followed by one Wait, make no write
// system call once the mapped window is reserved; an Append that needs the
// next window makes exactly one, the reservation. Under SyncAlways an Append
// is exactly one write(2). The counter is the process's, so each shape
// gets a few attempts for the case that some other goroutine of the test
// binary wrote meanwhile; a log that costs more never measures its count.
func TestUncontendedCommitMakesNoWrite(t *testing.T) {
	l, err := Open(logPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	always, err := OpenWith(logPath(t), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer always.Close()
	rec := Record{Op: OpInsert, Table: "t", Payload: make([]byte, 32)}
	mustAppend(t, l, rec) // grow the buffers, reserve the first window
	mustAppend(t, always, rec)
	shapes := []struct {
		name   string
		writes int
		setup  func()
		commit func()
	}{
		{"append", 0, func() {}, func() { mustAppend(t, l, rec) }},
		{"run of 64", 0, func() {}, func() {
			var last Ticket
			for i := 0; i < 64; i++ {
				if last, err = l.Submit(rec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := last.Wait(); err != nil {
				t.Fatal(err)
			}
		}},
		{"window reservation", 1, func() { fillWindow(t, l) }, func() { mustAppend(t, l, rec) }},
		{"SyncAlways append", 1, func() {}, func() { mustAppend(t, always, rec) }},
	}
	for _, sh := range shapes {
		least := -1
		for attempt := 0; attempt < 5 && least != sh.writes; attempt++ {
			sh.setup()
			before := writeSyscalls(t)
			sh.commit()
			if n := writeSyscalls(t) - before; least < 0 || n < least {
				least = n
			}
		}
		if least != sh.writes {
			t.Errorf("%s: %d write syscalls, want %d", sh.name, least, sh.writes)
		}
	}
}

// TestOpenCloseLeavesNoGoroutine: a log owns no goroutine, open or closed,
// and a closed log leaves no mapping of its file behind.
func TestOpenCloseLeavesNoGoroutine(t *testing.T) {
	path := logPath(t)
	before := runtime.NumGoroutine()
	mapsBefore := mappingsOf(t, path)
	for i := 0; i < 100; i++ {
		l, err := OpenWith(path, allPolicies[i%len(allPolicies)])
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > before { // fewer: an earlier test's goroutine ended
			t.Fatalf("cycle %d: %d goroutines with the log open, %d before", i, n, before)
		}
		mustAppend(t, l, Record{Op: OpInsert, Table: "t"})
		want := mapsBefore // the fsync policies write(2) and map nothing
		if l.opts.Policy == SyncNever {
			want++
		}
		if n := mappingsOf(t, path); n != want {
			t.Fatalf("cycle %d (%s): %d mappings of the log file after an append, want %d", i, l.opts.Policy, n, want)
		}
		if _, err := l.Submit(Record{Op: OpInsert, Table: "t"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after 100 open/close cycles, %d before", n, before)
	}
	if n := mappingsOf(t, path); n != mapsBefore {
		t.Fatalf("%d mappings of the log file after 100 open/close cycles, %d before", n, mapsBefore)
	}
}

// replayLSNs replays the log image raw (written to a scratch file) and
// returns the LSNs it yields, failing if they are not a gap-free run from 1.
func replayLSNs(t *testing.T, raw []byte) (n uint64) {
	t.Helper()
	path := logPath(t)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(r Record) error {
		if n++; r.LSN != n {
			return fmt.Errorf("replay position %d holds LSN %d", n, r.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAckedPrefixSurvivesCrash is the durability contract under a process
// crash, for every policy: copy the file at random moments while 8 writers
// append — the copy is what a kill at that moment leaves — and every record
// whose Wait had returned before the copy began must replay from it, as
// part of a gap-free LSN prefix. Records submitted and never waited on reach
// the file with the next Sync and with Close.
func TestAckedPrefixSurvivesCrash(t *testing.T) {
	for _, opts := range allPolicies {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			path := logPath(t)
			l, err := OpenWith(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 8, 400
			var acked atomic.Uint64 // highest LSN whose Wait has returned
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						lsn, err := l.Append(Record{Op: OpInsert, Table: "t", Payload: []byte{byte(w)}})
						if err != nil {
							t.Error(err)
							return
						}
						for cur := acked.Load(); lsn > cur && !acked.CompareAndSwap(cur, lsn); cur = acked.Load() {
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			rng := rand.New(rand.NewSource(1))
			for crashes, running := 0, true; running; crashes++ {
				select {
				case <-done:
					running = false // one last copy, of the quiesced log
				case <-time.After(time.Duration(rng.Intn(300)) * time.Microsecond):
				}
				// LSNs are dense and acknowledged in order per round, so
				// every LSN up to the highest acknowledged one was submitted
				// before it and must be in the file with it.
				want := acked.Load()
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := replayLSNs(t, raw); got < want {
					t.Fatalf("crash %d: LSN %d was acknowledged, the file replays to %d", crashes, want, got)
				}
			}

			// Never waited on: in the file after Sync, and after Close.
			for i := 0; i < 3; i++ {
				if _, err := l.Submit(Record{Op: OpInsert, Table: "t"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			raw, _ := os.ReadFile(path)
			if got := replayLSNs(t, raw); got != writers*perWriter+3 {
				t.Fatalf("after Sync the file replays to %d, want %d", got, writers*perWriter+3)
			}
			tk, err := l.Submit(Record{Op: OpInsert, Table: "t"})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			raw, _ = os.ReadFile(path)
			if got := replayLSNs(t, raw); got != writers*perWriter+4 {
				t.Fatalf("after Close the file replays to %d, want %d", got, writers*perWriter+4)
			}
			if lsn, err := tk.Wait(); err != nil || lsn != writers*perWriter+4 {
				t.Fatalf("ticket waited on after Close: LSN %d, %v", lsn, err)
			}
		})
	}
}

// TestFailedFsyncPoisons: the file accepts the write and refuses the fsync
// (a pipe does both; under SyncNever the copy goes to the window mapped before
// the swap). The record is in the "file", so Size and LastLSN move;
// it is never acknowledged, and the log is poisoned from it on.
func TestFailedFsyncPoisons(t *testing.T) {
	for _, opts := range allPolicies {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			l, err := OpenWith(logPath(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			first := mustAppend(t, l, Record{Op: OpInsert, Table: "t"})
			pr, pw, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			if err := pw.Sync(); err == nil {
				t.Skip("fsync of a pipe succeeds here")
			}
			l.f.Close()
			l.f = pw

			tk, err := l.Submit(Record{Op: OpInsert, Table: "t"})
			if err != nil {
				t.Fatal(err)
			}
			var failed error
			if opts.Policy == SyncNever { // its Wait never fsyncs; the barrier does
				failed = l.Sync()
			} else {
				_, failed = tk.Wait()
			}
			if failed == nil || !strings.Contains(failed.Error(), "wal: sync") {
				t.Fatalf("failed fsync reported as %v", failed)
			}
			if got := l.acked.Load(); got != first {
				t.Fatalf("acknowledged up to LSN %d after a failed fsync, want %d", got, first)
			}
			if opts.Policy != SyncNever {
				if _, err := tk.Wait(); err == nil || err.Error() != failed.Error() {
					t.Fatalf("second Wait on the failed ticket: %v, want %v", err, failed)
				}
			}
			if _, err := l.Submit(Record{Op: OpInsert, Table: "t"}); err == nil || err.Error() != failed.Error() {
				t.Fatalf("Submit on the poisoned log: %v, want %v", err, failed)
			}
			if err := l.Sync(); err == nil || err.Error() != failed.Error() {
				t.Fatalf("Sync on the poisoned log: %v, want %v", err, failed)
			}
			if err := l.Close(); err == nil {
				t.Fatal("Close hid the failed fsync")
			}
		})
	}
}

// TestWatchUnwatch: a cancelled watcher is gone, the others keep their
// wakeups, and a log nobody watches holds no watcher list to walk.
func TestWatchUnwatch(t *testing.T) {
	l, err := Open(logPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	keep := make(chan struct{}, 1)
	l.Watch(keep)
	for i := 0; i < 200; i++ {
		ch := make(chan struct{}, 1)
		l.Watch(ch)
		l.Unwatch(ch)
	}
	if ws := l.Watchers(); len(ws) != 1 || ws[0] != keep {
		t.Fatalf("%d watchers after 200 watch/unwatch cycles, want the 1 kept", len(ws))
	}
	mustAppend(t, l, Record{Op: OpInsert, Table: "t"})
	select {
	case <-keep:
	default:
		t.Fatal("the kept watcher was not woken by a write")
	}
	l.Unwatch(keep)
	if len(l.Watchers()) != 0 {
		t.Fatal("watcher left after Unwatch")
	}
}

// TestWaitersAndWritersStress is the -race exercise of the waiter/writer
// hand-over: far more goroutines than GOMAXPROCS mix Append, Submit without
// Wait, Wait on an old ticket and Sync while Close races them, under every
// policy. Close must return; no ticket may report success for a record that
// does not replay; what was submitted before Close took the log is all in
// the file, waited on or not.
func TestWaitersAndWritersStress(t *testing.T) {
	for _, opts := range allPolicies {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			for round := 0; round < 4; round++ {
				stressRound(t, opts, int64(round))
			}
		})
	}
}

func stressRound(t *testing.T, opts Options, seed int64) {
	path := logPath(t)
	l, err := OpenWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	workers := 16 * runtime.GOMAXPROCS(0)
	var (
		mu        sync.Mutex
		succeeded []uint64 // LSNs some Wait reported acknowledged
		submitted uint64   // highest LSN any Submit returned
		wg        sync.WaitGroup
	)
	note := func(lsn uint64, acked bool) {
		mu.Lock()
		defer mu.Unlock()
		submitted = max(submitted, lsn)
		if acked {
			succeeded = append(succeeded, lsn)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<16 | int64(w)))
			var held []Ticket
			rec := Record{Op: OpInsert, Table: "t", Payload: []byte{byte(w)}}
			for {
				switch rng.Intn(8) {
				case 0, 1, 2:
					tk, err := l.Submit(rec)
					if err != nil {
						if err != ErrClosed {
							t.Error(err)
						}
						for _, tk := range held { // Close acknowledged them all
							lsn, err := tk.Wait()
							if err != nil {
								t.Errorf("ticket %d waited on after Close: %v", tk.lsn, err)
							}
							note(lsn, err == nil)
						}
						return
					}
					note(tk.lsn, false)
					if rng.Intn(2) == 0 {
						lsn, err := tk.Wait()
						if err != nil {
							t.Error(err)
						}
						note(lsn, err == nil)
					} else {
						held = append(held, tk)
					}
				case 3, 4:
					if len(held) > 0 {
						lsn, err := held[0].Wait()
						if err != nil {
							t.Error(err)
						}
						note(lsn, err == nil)
						held = held[1:]
					}
				case 5:
					if err := l.Sync(); err != nil && err != ErrClosed {
						t.Error(err)
					}
				default:
					runtime.Gosched()
				}
			}
		}(w)
	}
	time.Sleep(time.Duration(2+seed) * time.Millisecond)
	closed := make(chan error, 2)
	for i := 0; i < 2; i++ { // two racing closers: the second waits for the first
		go func() { closed <- l.Close() }()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Close did not return")
		}
	}
	wg.Wait()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := replayLSNs(t, raw)
	for _, lsn := range succeeded {
		if lsn > replayed {
			t.Fatalf("LSN %d was acknowledged, the file replays to %d", lsn, replayed)
		}
	}
	if replayed != submitted {
		t.Fatalf("submitted up to LSN %d before Close, the file replays to %d", submitted, replayed)
	}
	if l.LastLSN() != replayed || l.Size() != int64(len(raw)) {
		t.Fatalf("published position (%d B, LSN %d), file (%d B, LSN %d)", l.Size(), l.LastLSN(), len(raw), replayed)
	}
	if !bytes.HasPrefix(raw, walMagic) {
		t.Fatal("header lost")
	}
}
