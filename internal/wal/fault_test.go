package wal

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"nxgraph/internal/dynamic"
)

// appendN appends n single-op batches, returning the first error.
func appendN(l *Log, n int, tag uint64) error {
	for i := 0; i < n; i++ {
		if _, err := l.Append(batch(1, tag+uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

func TestWriteFailurePoisonsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 2, 0); err != nil {
		t.Fatal(err)
	}
	// The 3rd segment write dies with ENOSPC, persisting nothing.
	ffs.FailWrite(1, 0, syscall.ENOSPC)
	if _, err := l.Append(batch(1, 50)); !errors.Is(err, ErrFailed) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append over full disk: %v, want ErrFailed wrapping ENOSPC", err)
	}
	// The log is poisoned: later appends fail fast without touching disk.
	w0, _ := ffs.Counts()
	if _, err := l.Append(batch(1, 51)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on poisoned log: %v, want ErrFailed", err)
	}
	if w1, _ := ffs.Counts(); w1 != w0 {
		t.Fatalf("poisoned append still wrote to disk (%d -> %d writes)", w0, w1)
	}
	l.Close()

	// Restart: the two acked batches survive, the failed one is gone,
	// and the sequence continues from the acked prefix.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("replay after ENOSPC found %d batches, want 2", len(got))
	}
	if seq, err := l2.Append(batch(1, 52)); err != nil || seq != 3 {
		t.Fatalf("append after recovery: seq=%d err=%v, want seq 3", seq, err)
	}
}

func TestShortWriteLeavesRecoverableTornTail(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	stats := &Stats{}
	l, err := Open(dir, Options{FS: ffs, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 3, 0); err != nil {
		t.Fatal(err)
	}
	// The next write tears: 9 bytes of the record reach the file.
	ffs.FailWrite(1, 9, ErrInjected)
	if _, err := l.Append(batch(2, 70)); !errors.Is(err, ErrFailed) {
		t.Fatalf("short write: %v, want ErrFailed", err)
	}
	l.Close()

	reopened := &Stats{}
	l2, err := Open(dir, Options{Stats: reopened})
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	defer l2.Close()
	if got := reopened.TornTails.Load(); got != 1 {
		t.Fatalf("torn tails = %d, want 1", got)
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replay found %d batches, want the 3 acked ones", len(got))
	}
}

// TestPoisonFailsRestOfDrainedBatch covers a tear inside a drained
// group: when one record's write tears the tail and poisons the log, the
// committer must fail it and every batch drained behind it, not append
// them past the tear — records after a torn one would be acked as
// durable and then silently truncated away by the next Open.
func TestPoisonFailsRestOfDrainedBatch(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	entered := make(chan struct{})
	gate := make(chan struct{})
	var hookOnce sync.Once
	l, err := Open(dir, Options{
		FS: ffs,
		Commit: func(seq uint64, ops []dynamic.Op) error {
			// Park the committer inside batch 1's commit so appends 2
			// and 3 pile up in the queue and drain together.
			hookOnce.Do(func() {
				close(entered)
				<-gate
			})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		_, err := l.Append(batch(1, 1))
		firstDone <- err
	}()
	<-entered

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(tag uint64) {
			_, err := l.Append(batch(1, tag))
			errs <- err
		}(uint64(10 + i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		queued := len(l.queue)
		l.mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("appends 2 and 3 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The next segment write (batch 2's record) tears after 9 bytes.
	ffs.FailWrite(1, 9, ErrInjected)
	close(gate)

	if err := <-firstDone; err != nil {
		t.Fatalf("append 1: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrFailed) {
			t.Fatalf("append drained behind the torn chunk: err=%v, want ErrFailed", err)
		}
	}
	l.Close()

	// Reopen: exactly the one acked batch survives; the torn record is
	// truncated and nothing was buried behind it.
	stats := &Stats{}
	l2, err := Open(dir, Options{Stats: stats})
	if err != nil {
		t.Fatalf("reopen after mid-drain poison: %v", err)
	}
	defer l2.Close()
	if got := stats.TornTails.Load(); got != 1 {
		t.Fatalf("torn tails = %d, want 1", got)
	}
	if got := collect(t, l2, 0); len(got) != 1 {
		t.Fatalf("replay found %d batches, want only the acked one", len(got))
	}
}

func TestSyncFailureFailsWholeChunk(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 2, 0); err != nil {
		t.Fatal(err)
	}
	_, s0 := ffs.Counts()
	ffs.FailSync(1, syscall.EIO)
	if _, err := l.Append(batch(1, 80)); !errors.Is(err, ErrFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with failing fsync: %v, want ErrFailed wrapping EIO", err)
	}
	if _, s1 := ffs.Counts(); s1 != s0+1 {
		t.Fatalf("expected exactly one more sync attempt, got %d -> %d", s0, s1)
	}
	if _, err := l.Append(batch(1, 81)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after fsync loss: %v, want ErrFailed (poisoned)", err)
	}
	l.Close()

	// The record reached the OS even though fsync failed, so a reopen
	// may legitimately surface it — the "commit outcome unknown"
	// window. What must hold: the acked prefix is intact and the log
	// accepts appends again.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after fsync failure: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) < 2 {
		t.Fatalf("replay lost acked batches: found %d, want >= 2", len(got))
	}
	if err := appendN(l2, 1, 90); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}

func TestCommitHookErrorDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	hookErr := errors.New("delta append failed")
	fail := true
	l, err := Open(dir, Options{
		Commit: func(seq uint64, ops []dynamic.Op) error {
			if fail {
				return hookErr
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(batch(1, 1)); !errors.Is(err, hookErr) {
		t.Fatalf("append with failing hook: %v, want the hook's error", err)
	}
	fail = false
	// The batch is durable despite the hook error; the log keeps going.
	if seq, err := l.Append(batch(1, 2)); err != nil || seq != 2 {
		t.Fatalf("append after hook recovery: seq=%d err=%v", seq, err)
	}
	if got := collect(t, l, 0); len(got) != 2 {
		t.Fatalf("replay found %d batches, want 2 (hook failure is still durable)", len(got))
	}
}
