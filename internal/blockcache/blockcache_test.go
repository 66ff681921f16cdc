package blockcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(gen uint64, i, j int) Key { return Key{Gen: gen, I: i, J: j} }

// load returns a loader producing a distinguishable value of the given
// size and counting its invocations.
func load(calls *atomic.Int64, v string, size int64) func(any) (any, int64, error) {
	return func(any) (any, int64, error) {
		calls.Add(1)
		return v, size, nil
	}
}

func TestHitMissAndRefcounting(t *testing.T) {
	c := New(1 << 20)
	var calls atomic.Int64
	h1, err := c.Get(key(1, 0, 0), 0, load(&calls, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	if h1.Value().(string) != "a" {
		t.Fatalf("Value = %v", h1.Value())
	}
	h2, err := c.Get(key(1, 0, 0), 0, load(&calls, "b", 100))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Value().(string) != "a" {
		t.Fatal("second Get did not share the cached block")
	}
	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.ResidentBytes != 100 || st.PinnedBytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
	h1.Release()
	if st := c.Stats(); st.PinnedBytes != 100 {
		t.Fatalf("pinned after one of two releases = %d, want 100", st.PinnedBytes)
	}
	h2.Release()
	h2.Release() // double release is a no-op
	st = c.Stats()
	if st.PinnedBytes != 0 || st.ResidentBytes != 100 || st.Blocks != 1 {
		t.Fatalf("stats after release = %+v", st)
	}
}

// TestAdmissionRespectsBudgetAndPins: what the cache retains never
// exceeds the budget, a pinned block is never dropped whether it was
// admitted or not, and the one that did not fit is let go of at its
// last Release.
func TestAdmissionRespectsBudgetAndPins(t *testing.T) {
	c := New(250)
	var calls atomic.Int64
	var handles []*Handle
	for j := 0; j < 3; j++ {
		h, err := c.Get(key(1, 0, j), 0, load(&calls, fmt.Sprint(j), 100))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// All three pinned: 300 resident bytes exceed the 250 budget, but
	// pins are never dropped. The third did not fit and was not admitted.
	if st := c.Stats(); st.ResidentBytes != 300 || st.Evictions != 0 || c.retained != 200 {
		t.Fatalf("pinned overage stats = %+v, retained %d", st, c.retained)
	}
	if h, err := c.Get(key(1, 0, 2), 0, load(&calls, "again", 100)); err != nil || h.Value() != "2" {
		t.Fatalf("a pinned, unadmitted block was not shared: %v %v", h, err)
	} else {
		handles = append(handles, h)
	}
	for _, h := range handles {
		if h.Value() == nil {
			t.Fatal("pinned value dropped")
		}
		h.Release()
	}
	// The last Release lets go of the block that was never admitted.
	st := c.Stats()
	if st.ResidentBytes != 200 || st.Blocks != 2 || st.Evictions != 1 {
		t.Fatalf("post-release stats = %+v", st)
	}
	// The two that fitted are hits; the third is loaded again, and again
	// not admitted: its count does not beat theirs by more than one.
	for j, want := range []int64{3, 3, 4} {
		h, err := c.Get(key(1, 0, j), 0, load(&calls, fmt.Sprint(j), 100))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		if calls.Load() != want {
			t.Fatalf("after re-Get of block %d: %d loader calls, want %d", j, calls.Load(), want)
		}
	}
	if st := c.Stats(); st.ResidentBytes != 200 || st.PinnedBytes != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestZeroBudgetKeepsNothingBeyondPins(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	h, err := c.Get(key(1, 0, 0), 0, load(&calls, "a", 64))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentBytes != 64 {
		t.Fatalf("pinned block not resident: %+v", st)
	}
	h.Release()
	if st := c.Stats(); st.ResidentBytes != 0 || st.Blocks != 0 {
		t.Fatalf("zero-budget cache retained a block: %+v", st)
	}
	if len(c.count) != 0 {
		t.Fatalf("zero-budget cache counts accesses it can never act on: %v", c.count)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(-1)
	boom := errors.New("boom")
	if _, err := c.Get(key(1, 0, 0), 0, func(any) (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var calls atomic.Int64
	h, err := c.Get(key(1, 0, 0), 0, load(&calls, "ok", 8))
	if err != nil || calls.Load() != 1 {
		t.Fatalf("retry after error: err=%v calls=%d", err, calls.Load())
	}
	h.Release()
	if st := c.Stats(); st.ResidentBytes != 8 || st.PinnedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidateGeneration(t *testing.T) {
	c := New(-1)
	var calls atomic.Int64
	hOld, _ := c.Get(key(1, 0, 0), 0, load(&calls, "old-pinned", 10))
	hTmp, _ := c.Get(key(1, 0, 1), 0, load(&calls, "old-idle", 10))
	hTmp.Release()
	hNew, _ := c.Get(key(2, 0, 0), 0, load(&calls, "new", 10))

	c.InvalidateGeneration(1)

	// The unpinned gen-1 block is gone immediately; the pinned one is
	// unmapped (a re-Get misses) but its bytes stay until release.
	st := c.Stats()
	if st.Blocks != 1 || st.ResidentBytes != 20 || st.Invalidations != 2 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	if _, err := c.Get(key(1, 0, 0), 0, load(&calls, "old-reload", 10)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("invalidated block served from cache (calls=%d)", calls.Load())
	}
	// The doomed block's value is still usable by its holder.
	if hOld.Value().(string) != "old-pinned" {
		t.Fatal("pinned value corrupted by invalidation")
	}
	hOld.Release()
	hNew.Release()
	st = c.Stats()
	// gen-2 block plus the post-invalidate reload remain.
	if st.ResidentBytes != 20 || st.PinnedBytes != 10 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestConcurrentGetSingleFlight(t *testing.T) {
	c := New(-1)
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h, err := c.Get(key(1, 3, 4), 0, load(&calls, "x", 1))
			if err != nil {
				t.Error(err)
				return
			}
			if h.Value().(string) != "x" {
				t.Error("wrong value")
			}
			h.Release()
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times under concurrency, want 1", calls.Load())
	}
}

// TestConcurrentChurn hammers Get/Release/Invalidate from many
// goroutines; run under -race it is the cache's memory-safety proof.
func TestConcurrentChurn(t *testing.T) {
	c := New(512) // small budget: constant eviction pressure
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				k := key(uint64(1+n%3), n%5, (n+w)%5)
				h, err := c.Get(k, 0, func(any) (any, int64, error) { return n, 64, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if n%7 == 0 {
					c.InvalidateGeneration(uint64(1 + n%3))
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes leaked: %+v", st)
	}
	if st.ResidentBytes > 512 {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
}

func TestNextGenerationUnique(t *testing.T) {
	a, b := NextGeneration(), NextGeneration()
	if a == b || b == 0 {
		t.Fatalf("generations not unique: %d %d", a, b)
	}
}

// The Tiered tests are named for the two-tier cache whose paths they
// covered; they now run the same paths through the one tier: both
// replicas of a sub-shard, failed loads, and churn with spares.

// TestTieredInvalidateBothTiers: invalidating a generation drops both
// replicas of each of its sub-shards, and a later Get loads again.
func TestTieredInvalidateBothTiers(t *testing.T) {
	c := New(-1)
	var calls atomic.Int64
	for j := 0; j < 3; j++ {
		for _, tr := range []bool{false, true} {
			h, err := c.Get(Key{Gen: 1, I: 0, J: j, Transpose: tr}, 0, load(&calls, "v", 10))
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	c.InvalidateGeneration(1)
	st := c.Stats()
	if st.Blocks != 0 || st.ResidentBytes != 0 || st.PinnedBytes != 0 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	if st.Invalidations != 6 { // 3 forward + 3 transposed blocks
		t.Fatalf("invalidations = %d, want 6", st.Invalidations)
	}
	h, err := c.Get(Key{Gen: 1, I: 0, J: 0, Transpose: true}, 0, load(&calls, "v", 10))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if calls.Load() != 7 {
		t.Fatalf("invalidated block served from cache (calls=%d, want 7)", calls.Load())
	}
}

// TestTieredSingleFlight: concurrent Gets for the two replicas of one
// sub-shard coalesce to one load per replica.
func TestTieredSingleFlight(t *testing.T) {
	c := New(-1)
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			k := Key{Gen: 1, I: 3, J: 4, Transpose: w%2 == 0}
			h, err := c.Get(k, 0, load(&calls, fmt.Sprint(k.Transpose), 1))
			if err != nil {
				t.Error(err)
				return
			}
			if h.Value().(string) != fmt.Sprint(k.Transpose) {
				t.Error("wrong value")
			}
			h.Release()
		}(w)
	}
	close(start)
	wg.Wait()
	if calls.Load() != 2 {
		t.Fatalf("loader ran %d times under concurrency, want 2 (one per replica)", calls.Load())
	}
}

// TestTieredErrors: a failed load caches nothing and counts no miss; the
// retry loads once and publishes the block, and the next Get is a hit.
func TestTieredErrors(t *testing.T) {
	c := New(-1)
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := c.Get(key(1, 0, 0), 0, func(any) (any, int64, error) { calls.Add(1); return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Blocks != 0 || st.ResidentBytes != 0 || st.Misses != 0 {
		t.Fatalf("error cached or counted: %+v", st)
	}
	for i := 0; i < 2; i++ {
		h, err := c.Get(key(1, 0, 0), 0, load(&calls, "ok", 8))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if calls.Load() != 2 {
		t.Fatalf("loads = %d, want 2 (the failed one and the retry)", calls.Load())
	}
	if st := c.Stats(); st.Blocks != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after retry: %+v", st)
	}
}

// TestTieredConcurrentChurn is the -race proof for both replicas under
// budget pressure with every miss asking for a spare.
func TestTieredConcurrentChurn(t *testing.T) {
	c := New(512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				k := Key{Gen: uint64(1 + n%3), I: n % 5, J: (n + w) % 5, Transpose: n%2 == 0}
				h, err := c.Get(k, 64, func(any) (any, int64, error) { return n, 64, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if n%7 == 0 {
					c.InvalidateGeneration(uint64(1 + n%3))
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes leaked: %+v", st)
	}
	if st.ResidentBytes > 512 {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
}

func TestHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Fatalf("empty ratio = %v", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
}

// getSized loads key as a block of the given size, asking for a spare of
// at least want bytes, and reports what load was offered.
func getSized(t *testing.T, c *Cache, k Key, want, size int64) (*Handle, any) {
	t.Helper()
	var offered any
	h, err := c.Get(k, want, func(spare any) (any, int64, error) {
		offered = spare
		return fmt.Sprint(k.J), size, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, offered
}

// TestSparesAreEvictedBlocksWithinOnePinnedBatch pins down the hand-back:
// a block evicted at refs == 0 is offered to the next load that wants
// its size, once; the spares never exceed the bytes pinned when a block
// is let go (oldest dropped first, nothing kept when nothing is pinned);
// and a fit is at least want and at most twice it, smallest first.
func TestSparesAreEvictedBlocksWithinOnePinnedBatch(t *testing.T) {
	c := New(0) // keeps nothing unpinned: Release evicts

	// Nothing pinned: the evicted block is not kept.
	h, _ := getSized(t, c, key(1, 0, 0), 0, 100)
	h.Release()
	if h, got := getSized(t, c, key(1, 0, 1), 100, 100); got != nil {
		t.Fatalf("spare %v offered though nothing was pinned at eviction", got)
	} else {
		h.Release()
	}

	pin, _ := getSized(t, c, key(1, 9, 9), 0, 250) // bounds the spares at 250 B
	defer pin.Release()
	for j, size := range []int64{100, 120, 80} { // 100 is dropped when 80 arrives: 300 > 250
		h, _ := getSized(t, c, key(1, 1, j), 0, size)
		h.Release()
	}
	if c.spareBytes != 200 || len(c.spares) != 2 {
		t.Fatalf("%d spares of %d B, want the newest two (200 B) under 250 B pinned", len(c.spares), c.spareBytes)
	}
	// want 70: 80 and 120 both fit (≤ 140); the smaller is taken.
	h1, got := getSized(t, c, key(1, 2, 0), 70, 70)
	if got != "2" {
		t.Fatalf("want=70 was offered %v, want the 80 B block", got)
	}
	defer h1.Release()
	// want 50: 120 is more than twice it. want 130: nothing that large.
	for _, want := range []int64{50, 130} {
		h, got := getSized(t, c, key(1, 3, int(want)), want, want)
		if got != nil {
			t.Fatalf("want=%d was offered %v", want, got)
		}
		defer h.Release()
	}
	// A spare is handed out once.
	h2, got := getSized(t, c, key(1, 2, 1), 110, 110)
	if got != "1" {
		t.Fatalf("want=110 was offered %v, want the 120 B block", got)
	}
	defer h2.Release()
	if h3, got := getSized(t, c, key(1, 2, 2), 110, 110); got != nil {
		t.Fatalf("the 120 B block was offered twice")
	} else {
		h3.Release()
	}
}

// TestSparesFromInvalidation: blocks dropped by InvalidateGeneration are
// recycled like evicted ones — at once when unpinned, at the final
// Release when pinned — and never while a handle still reaches them.
func TestSparesFromInvalidation(t *testing.T) {
	c := New(1 << 20)
	keep, _ := getSized(t, c, key(2, 0, 0), 0, 500) // another generation, pinned throughout
	defer keep.Release()
	idle, _ := getSized(t, c, key(1, 0, 0), 0, 100)
	idle.Release()
	held, _ := getSized(t, c, key(1, 0, 1), 0, 200)

	c.InvalidateGeneration(1)
	if len(c.spares) != 1 || c.spares[0].val != "0" {
		t.Fatalf("after invalidation: spares %v, want only the unpinned block", c.spares)
	}
	if _, got := getSized(t, c, key(2, 1, 0), 200, 200); got != nil {
		t.Fatalf("a block still pinned was offered as a spare: %v", got)
	}
	held.Release()
	if _, got := getSized(t, c, key(2, 1, 1), 200, 200); got != "1" {
		t.Fatalf("the doomed block was not recycled at its final release: offered %v", got)
	}
}
