package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"nxgraph/internal/dynamic"
)

func batch(n int, tag uint64) []dynamic.Op {
	ops := make([]dynamic.Op, n)
	for i := range ops {
		ops[i] = dynamic.Op{Src: tag*1000 + uint64(i), Dst: tag, Weight: float32(i) + 0.5}
		if i%3 == 0 {
			ops[i].Remove = true
		}
	}
	return ops
}

// collect replays the whole log into a seq->ops map.
func collect(t *testing.T, l *Log, from uint64) map[uint64][]dynamic.Op {
	t.Helper()
	got := make(map[uint64][]dynamic.Op)
	n, err := l.Replay(from, func(seq uint64, ops []dynamic.Op) error {
		got[seq] = ops
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("replay count %d != batches seen %d", n, len(got))
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]dynamic.Op)
	for i := 0; i < 10; i++ {
		ops := batch(1+i%4, uint64(i))
		seq, err := l.Append(ops)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: got seq %d, want %d", i, seq, i+1)
		}
		want[seq] = ops
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed batches differ from appended:\n got %v\nwant %v", got, want)
	}
	// Replay(from) skips everything at or below from.
	if got := collect(t, l2, 7); len(got) != 3 {
		t.Fatalf("Replay(7) yielded %d batches, want 3", len(got))
	}
	// Appending after reopen continues the sequence.
	if seq, err := l2.Append(batch(2, 99)); err != nil || seq != 11 {
		t.Fatalf("append after reopen: seq=%d err=%v, want 11", seq, err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"partial-header": {0xde, 0xad, 0xbe, 0xef, 0x01},
		"huge-length": func() []byte {
			b := make([]byte, recHeaderSize)
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
			return b
		}(),
		"bad-crc": func() []byte {
			rec := encodeRecord(3, batch(2, 7))
			rec[len(rec)-1] ^= 0xff // flip a payload byte after the crc was set
			return rec
		}(),
		"truncated-payload": encodeRecord(3, batch(5, 7))[:recHeaderSize+10],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(batch(3, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(batch(2, 2)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash tail: raw garbage after the intact
			// records.
			seg := filepath.Join(dir, segName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			stats := &Stats{}
			l2, err := Open(dir, Options{Stats: stats})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			defer l2.Close()
			if got := stats.TornTails.Load(); got != 1 {
				t.Fatalf("torn tails = %d, want 1", got)
			}
			if got := l2.LastSeq(); got != 2 {
				t.Fatalf("LastSeq = %d, want 2 (torn record dropped)", got)
			}
			if got := collect(t, l2, 0); len(got) != 2 {
				t.Fatalf("replay found %d batches, want 2", len(got))
			}
			// The log must be appendable right where the tear was cut.
			if seq, err := l2.Append(batch(1, 3)); err != nil || seq != 3 {
				t.Fatalf("append after truncation: seq=%d err=%v", seq, err)
			}
		})
	}
}

func TestCorruptionBeforeTailRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1}) // every batch rolls a segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(batch(2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage a record in the middle segment — not a legal crash tail.
	seg := filepath.Join(dir, segName(2))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[recHeaderSize] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(batch(2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got != 5 {
		t.Fatalf("segments = %d, want 5", got)
	}
	// GC through seq 3: segments holding 1..3 go, 4..5 stay.
	if err := l.TruncateThrough(3); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("segments after GC = %d, want 2", got)
	}
	// The active tail is never removed, even if fully redundant.
	if err := l.TruncateThrough(100); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after full GC = %d, want 1 (active tail)", got)
	}
	if got := collect(t, l, 4); len(got) != 1 {
		t.Fatalf("replay after GC found %d batches, want 1", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A GC'd log reopens fine even though its first segment is not 1.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if seq, err := l2.Append(batch(1, 9)); err != nil || seq != 6 {
		t.Fatalf("append after GC reopen: seq=%d err=%v", seq, err)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	stats := &Stats{}
	l, err := Open(dir, Options{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const appenders, rounds = 8, 25
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := l.Append(batch(1, uint64(a*1000+r))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	appends, fsyncs := stats.Appends.Load(), stats.Fsyncs.Load()
	if appends != appenders*rounds {
		t.Fatalf("appends = %d, want %d", appends, appenders*rounds)
	}
	if fsyncs > appends {
		t.Fatalf("fsyncs (%d) exceed appends (%d): group commit never coalesced", fsyncs, appends)
	}
	t.Logf("group commit: %d appends in %d fsyncs", appends, fsyncs)
	// Everything acked must be durable and ordered.
	if got := collect(t, l, 0); len(got) != appenders*rounds {
		t.Fatalf("replay found %d batches, want %d", len(got), appenders*rounds)
	}
}

func TestCommitHookOrderedAndPreAck(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var seqs []uint64
	l, err := Open(dir, Options{
		Commit: func(seq uint64, ops []dynamic.Op) error {
			mu.Lock()
			seqs = append(seqs, seq)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append(batch(1, uint64(i))); err != nil {
				t.Errorf("append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 50 {
		t.Fatalf("commit hook ran %d times, want 50", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("commit hook order broken at %d: got seq %d", i, s)
		}
	}
}

func TestSyncPolicyParse(t *testing.T) {
	cases := map[string]SyncPolicy{"off": SyncOff, "batch": SyncBatch, "": SyncBatch, "BATCH": SyncBatch}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && in != "BATCH" && got.String() != in {
			t.Fatalf("round trip %q -> %q", in, got.String())
		}
	}
	// "always" was a second fsync mode with batch's guarantee; it is
	// rejected like any other unknown value.
	for _, bad := range []string{"sometimes", "always"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("ParseSyncPolicy accepted %q", bad)
		}
	}
}

func TestSyncOffNeverFsyncs(t *testing.T) {
	dir := t.TempDir()
	stats := &Stats{}
	l, err := Open(dir, Options{Policy: SyncOff, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(batch(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stats.Fsyncs.Load(); got != 0 {
		t.Fatalf("fsyncs = %d under -fsync=off, want 0", got)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Missing manifest reads as the zero value (pre-WAL stores).
	m, err := ReadManifest(dir)
	if err != nil || m != (Manifest{}) {
		t.Fatalf("missing manifest: %+v, %v", m, err)
	}
	want := Manifest{Generation: 3, LastAppliedSeq: 41}
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(dir); err != nil || got != want {
		t.Fatalf("ReadManifest = %+v, %v; want %+v", got, err, want)
	}
}
