package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func mustAppend(t *testing.T, l *Log, rec Record) uint64 {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpInsert, Table: "t1", Payload: []byte{1, 2, 3}},
		{Op: OpDelete, Table: "t2", Payload: nil},
		{Op: OpUpdate, Table: "", Payload: []byte{9}},
		{Op: OpCreateTable, Table: "t3", Payload: []byte(`{"cols":["a"]}`)},
	}
	for i, r := range want {
		if lsn := mustAppend(t, l, r); lsn != uint64(i+1) {
			t.Fatalf("record %d assigned LSN %d", i, lsn)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := Replay(path, func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...) // Payload is only valid during fn
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Table != want[i].Table ||
			!bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		if got[i].LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d, want %d", i, got[i].LSN, i+1)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	n := 0
	if err := Replay(filepath.Join(t.TempDir(), "nope.log"), func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("records from missing file")
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte{byte(i)}})
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: simulate a crash during the final append.
	for _, cut := range []int{len(raw) - 1, len(raw) - 5, len(raw) - 11} {
		torn := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := Replay(torn, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n < 8 || n > 10 {
			t.Fatalf("cut %d: replayed %d records", cut, n)
		}
	}
}

// The torn-tail append bug: records written after a crash-torn tail must be
// reachable, which requires Open to truncate the tail before appending.
func TestOpenRepairsTornTailBeforeAppend(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte{byte(i)}})
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen (must repair) and append three more records.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Ten identical frames follow the file header; the cut tore the last.
	whole := int64(len(raw))
	want := whole - (whole-headerLen)/10
	if l2.Size() != want {
		t.Fatalf("repaired length %d, want %d", l2.Size(), want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Fatalf("file size %d after repair, want %d", fi.Size(), want)
	}
	for i := 0; i < 3; i++ {
		if lsn := mustAppend(t, l2, Record{Op: OpDelete, Table: "t", Payload: []byte{byte(100 + i)}}); lsn != uint64(10+i) {
			t.Fatalf("post-repair LSN %d, want %d (continue after last valid frame)", lsn, 10+i)
		}
	}
	l2.Close()
	var got []Record
	if err := Replay(path, func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...) // Payload is only valid during fn
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("replayed %d records, want 12 (9 surviving + 3 appended)", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d not contiguous", i, r.LSN)
		}
	}
}

func TestCorruptRecordStops(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte("aaaa")})
	mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte("bbbb")})
	l.Close()
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF // flip a payload byte of the second record
	os.WriteFile(path, raw, 0o644)
	n := 0
	if err := Replay(path, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d, want 1 (corrupt tail dropped)", n)
	}
}

func TestReplayFromOffset(t *testing.T) {
	path := logPath(t)
	l, _ := Open(path)
	var sizes []int64
	for i := 0; i < 4; i++ {
		mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte{byte(i)}})
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		// Size, not the file's length: an open log's file runs on past it
		// by the reserved rest of the window.
		sizes = append(sizes, l.Size())
	}
	l.Close()
	// Replaying from the offset after record i yields records i+1..4.
	for i, off := range sizes {
		var got []byte
		if err := ReplayFrom(path, off, func(r Record) error { got = append(got, r.Payload[0]); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 3-i {
			t.Fatalf("offset %d: replayed %d records, want %d", off, len(got), 3-i)
		}
		for j, b := range got {
			if int(b) != i+1+j {
				t.Fatalf("offset %d: record %d payload %d", off, j, b)
			}
		}
	}
}

func TestTableNameTooLong(t *testing.T) {
	l, _ := Open(logPath(t))
	defer l.Close()
	long := make([]byte, 1<<16)
	if _, err := l.Append(Record{Op: OpInsert, Table: string(long)}); err != ErrTableNameTooLong {
		t.Fatalf("want ErrTableNameTooLong, got %v", err)
	}
}

// A record replay would read as corruption must be rejected at Submit, not
// acknowledged and then silently truncated on the next open.
func TestRecordTooLargeRejected(t *testing.T) {
	l, _ := Open(logPath(t))
	defer l.Close()
	huge := make([]byte, maxBodyLen)
	if _, err := l.Append(Record{Op: OpInsert, Table: "t", Payload: huge}); err != ErrRecordTooLarge {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	l, _ := Open(logPath(t))
	mustAppend(t, l, Record{Op: OpInsert, Table: "t"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpInsert, Table: "t"}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v", err)
	}
}

// Concurrent submitters under each policy, each submitting runs of records
// before it waits (the shape DurableDB.ApplyEach produces), so a writer
// collects batches of many frames into one write: every record
// must be acknowledged, frames must never interleave, replay must return
// every LSN once and in order, and Size/LastLSN — published after the
// batch write — must never run ahead of the bytes in the file.
func TestConcurrentAppendAllPolicies(t *testing.T) {
	for _, opts := range []Options{
		{Policy: SyncNever},
		{Policy: SyncGroup, GroupInterval: 200 * time.Microsecond},
		{Policy: SyncAlways},
	} {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			path := logPath(t)
			l, err := OpenWith(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 8, 1000
			var mu sync.Mutex
			var lsns []uint64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tks := make([]Ticket, 0, 32)
					for i := 0; i < perWriter; {
						tks = tks[:0]
						for run := 1 + (i+w)%32; run > 0 && i < perWriter; run, i = run-1, i+1 {
							tk, err := l.Submit(Record{Op: OpInsert, Table: "t", Payload: []byte{byte(w), byte(i), byte(i >> 8)}})
							if err != nil {
								t.Error(err)
								return
							}
							tks = append(tks, tk)
						}
						for _, tk := range tks {
							lsn, err := tk.Wait()
							if err != nil {
								t.Error(err)
								return
							}
							mu.Lock()
							lsns = append(lsns, lsn)
							mu.Unlock()
						}
					}
				}(w)
			}
			// Sample the published position against the file while the
			// writers run.
			stop := make(chan struct{})
			sampled := make(chan struct{})
			go func() {
				defer close(sampled)
				for {
					select {
					case <-stop:
						return
					default:
					}
					size, last := l.Size(), l.LastLSN()
					fi, err := os.Stat(path)
					if err != nil {
						t.Error(err)
						return
					}
					if fi.Size() < size {
						t.Errorf("Size() %d ahead of the file's %d bytes", size, fi.Size())
						return
					}
					var seen uint64
					if err := Replay(path, func(r Record) error { seen = r.LSN; return nil }); err != nil {
						t.Error(err)
						return
					}
					if seen < last {
						t.Errorf("LastLSN() %d ahead of the file, which replays to %d", last, seen)
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-sampled
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
			if len(lsns) != writers*perWriter {
				t.Fatalf("%d acknowledged appends", len(lsns))
			}
			for i, lsn := range lsns {
				if lsn != uint64(i+1) {
					t.Fatalf("LSNs not dense: position %d has %d", i, lsn)
				}
			}
			// Per writer, records replay in submission order.
			next := make([]int, writers)
			n := 0
			err = Replay(path, func(r Record) error {
				n++
				if r.LSN != uint64(n) {
					t.Fatalf("replay position %d has LSN %d", n, r.LSN)
				}
				w, i := int(r.Payload[0]), int(r.Payload[1])|int(r.Payload[2])<<8
				if i != next[w] {
					t.Fatalf("writer %d: record %d replayed where %d was due", w, i, next[w])
				}
				next[w]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != writers*perWriter {
				t.Fatalf("replayed %d records, want %d", n, writers*perWriter)
			}
		})
	}
}

// A write that fails poisons the log: every record of the failed batch —
// tickets taken before the write and waited on after it included — and every
// later Submit reports the same sticky error, the records acknowledged
// before it still answer nil, and the published position stays at its
// pre-batch value (never ahead of the bytes that were written). The
// acknowledged record fills the first window to its last byte, so under
// SyncNever the write that fails is the reservation of the next window;
// under the fsync policies it is the batch's write(2).
func TestFailedBatchWriteIsSticky(t *testing.T) {
	for _, opts := range allPolicies {
		t.Run(opts.Policy.String(), func(t *testing.T) { failedBatchWrite(t, opts) })
	}
}

func failedBatchWrite(t *testing.T, opts Options) {
	l, err := OpenWith(logPath(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, windowLen-headerLen-(frameHdrLen+minBodyLen+1))
	acked, err := l.Submit(Record{Op: OpInsert, Table: "t", Payload: fill})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acked.Wait(); err != nil {
		t.Fatal(err)
	}
	size, last := l.Size(), l.LastLSN()
	if size != windowLen {
		t.Fatalf("the first record ends at %d, want the window's end %d", size, windowLen)
	}
	var early [3]Ticket // submitted before the failing write, waited on after it
	for i := range early {
		if early[i], err = l.Submit(Record{Op: OpInsert, Table: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	l.f.Close() // every later reservation or write(2) fails
	want := "wal: append"
	if opts.Policy == SyncNever {
		want = "wal: reserve window"
	}
	_, sticky := early[1].Wait()
	if sticky == nil || !strings.Contains(sticky.Error(), want) {
		t.Fatalf("append on a closed file answered %v, want %q", sticky, want)
	}
	for i, tk := range early {
		if _, err := tk.Wait(); err == nil || err.Error() != sticky.Error() {
			t.Fatalf("early ticket %d: %v, want the sticky error %v", i, err, sticky)
		}
	}
	if lsn, err := acked.Wait(); err != nil || lsn != last {
		t.Fatalf("record acknowledged before the failure now answers (%d, %v)", lsn, err)
	}

	const submitters = 8
	errs := make([]error, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = l.Append(Record{Op: OpInsert, Table: "t", Payload: []byte{byte(w)}})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil || err.Error() != sticky.Error() {
			t.Fatalf("submitter %d: %v, want the sticky error %v", w, err, sticky)
		}
	}
	if err := l.Sync(); err == nil || err.Error() != sticky.Error() {
		t.Fatalf("Sync: %v, want the sticky error %v", err, sticky)
	}
	if l.Size() != size || l.LastLSN() != last {
		t.Fatalf("failed batch moved the position to (%d, LSN %d), want (%d, LSN %d)",
			l.Size(), l.LastLSN(), size, last)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the write error")
	}
}

// A Sync barrier must cover every record submitted before it, even with the
// group timer still pending.
func TestSyncBarrierCoversSubmitted(t *testing.T) {
	l, err := OpenWith(logPath(t), Options{Policy: SyncGroup, GroupInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tk, err := l.Submit(Record{Op: OpInsert, Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := tk.Wait(); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("group-commit waiter not released by Sync barrier")
	}
}

// Property: any sequence of random records roundtrips in order.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "walq-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "w.log")
		l, err := Open(path)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(50)
		recs := make([]Record, n)
		for i := range recs {
			p := make([]byte, rng.Intn(100))
			rng.Read(p)
			recs[i] = Record{
				Op:      Op(1 + rng.Intn(5)),
				Table:   string(rune('a' + rng.Intn(26))),
				Payload: p,
			}
			if _, err := l.Append(recs[i]); err != nil {
				return false
			}
		}
		l.Close()
		i := 0
		ok := true
		Replay(path, func(r Record) error {
			if i >= n || r.Op != recs[i].Op || r.Table != recs[i].Table ||
				!bytes.Equal(r.Payload, recs[i].Payload) {
				ok = false
			}
			i++
			return nil
		})
		return ok && i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
