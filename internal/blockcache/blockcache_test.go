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
func load(calls *atomic.Int64, v string, size int64) func() (any, int64, error) {
	return func() (any, int64, error) {
		calls.Add(1)
		return v, size, nil
	}
}

func TestHitMissAndRefcounting(t *testing.T) {
	c := New(1 << 20)
	var calls atomic.Int64
	h1, err := c.Get(key(1, 0, 0), load(&calls, "a", 100))
	if err != nil {
		t.Fatal(err)
	}
	if h1.Value().(string) != "a" {
		t.Fatalf("Value = %v", h1.Value())
	}
	h2, err := c.Get(key(1, 0, 0), load(&calls, "b", 100))
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
		h, err := c.Get(key(1, 0, j), load(&calls, fmt.Sprint(j), 100))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// All three pinned: 300 resident bytes exceed the 250 budget, but
	// pins are never dropped. The third did not fit and was not admitted.
	if st := c.Stats(); st.ResidentBytes != 300 || st.Evictions != 0 || c.l1.retained != 200 {
		t.Fatalf("pinned overage stats = %+v, retained %d", st, c.l1.retained)
	}
	if h, err := c.Get(key(1, 0, 2), load(&calls, "again", 100)); err != nil || h.Value() != "2" {
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
		h, err := c.Get(key(1, 0, j), load(&calls, fmt.Sprint(j), 100))
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
	h, err := c.Get(key(1, 0, 0), load(&calls, "a", 64))
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
	if len(c.l1.count) != 0 {
		t.Fatalf("zero-budget cache counts accesses it can never act on: %v", c.l1.count)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(-1)
	boom := errors.New("boom")
	if _, err := c.Get(key(1, 0, 0), func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var calls atomic.Int64
	h, err := c.Get(key(1, 0, 0), load(&calls, "ok", 8))
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
	hOld, _ := c.Get(key(1, 0, 0), load(&calls, "old-pinned", 10))
	hTmp, _ := c.Get(key(1, 0, 1), load(&calls, "old-idle", 10))
	hTmp.Release()
	hNew, _ := c.Get(key(2, 0, 0), load(&calls, "new", 10))

	c.InvalidateGeneration(1)

	// The unpinned gen-1 block is gone immediately; the pinned one is
	// unmapped (a re-Get misses) but its bytes stay until release.
	st := c.Stats()
	if st.Blocks != 1 || st.ResidentBytes != 20 || st.Invalidations != 2 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	if _, err := c.Get(key(1, 0, 0), load(&calls, "old-reload", 10)); err != nil {
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
			h, err := c.Get(key(1, 3, 4), load(&calls, "x", 1))
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
				h, err := c.Get(k, func() (any, int64, error) { return n, 64, nil })
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

// rawLoad returns a loadRaw closure producing a fixed blob and counting
// disk reads.
func rawLoad(reads *atomic.Int64, blob []byte) func() ([]byte, error) {
	return func() ([]byte, error) {
		reads.Add(1)
		return blob, nil
	}
}

// sizedDecode models decoding: the value is the blob, the accounted size
// is an expansion of the encoded size (decoded blocks are bigger).
func sizedDecode(decodes *atomic.Int64, expand int64) func([]byte, any) (any, int64, error) {
	return func(blob []byte, _ any) (any, int64, error) {
		decodes.Add(1)
		return blob, int64(len(blob)) * expand, nil
	}
}

// TestTieredL2HitAvoidsDisk is the tier's reason to exist: once the blob
// is resident, an L1 miss costs a decode but no disk read.
func TestTieredL2HitAvoidsDisk(t *testing.T) {
	c := NewTiered(0, 1<<20) // L1 keeps nothing beyond pins
	var reads, decodes atomic.Int64
	blob := make([]byte, 100)
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, blob), sizedDecode(&decodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	h.Release() // zero L1 budget: the decoded block is dropped here
	h, err = c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, blob), sizedDecode(&decodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if reads.Load() != 1 || decodes.Load() != 2 {
		t.Fatalf("reads=%d decodes=%d, want 1 disk read and 2 decodes", reads.Load(), decodes.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.L2Hits != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.L2ResidentBytes != 100 || st.L2PinnedBytes != 0 {
		t.Fatalf("L2 accounting = %+v", st)
	}
}

// TestTieredNoDoubleCharge audits the accounting when a sub-shard is
// resident in both tiers: each tier charges its own representation, a
// pinned decoded handle pins L1 bytes only, and the blob is unpinned the
// moment its decode completes.
func TestTieredNoDoubleCharge(t *testing.T) {
	c := NewTiered(1<<20, 1<<20)
	var reads, decodes atomic.Int64
	blob := make([]byte, 100)
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, blob), sizedDecode(&decodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentBytes != 400 || st.PinnedBytes != 400 {
		t.Fatalf("L1 charged %d resident / %d pinned, want 400/400", st.ResidentBytes, st.PinnedBytes)
	}
	if st.L2ResidentBytes != 100 || st.L2PinnedBytes != 0 {
		t.Fatalf("L2 charged %d resident / %d pinned, want 100/0 (blob unpinned after decode)",
			st.L2ResidentBytes, st.L2PinnedBytes)
	}
	h.Release()
	st = c.Stats()
	if st.PinnedBytes != 0 || st.ResidentBytes != 400 || st.L2ResidentBytes != 100 {
		t.Fatalf("post-release stats = %+v", st)
	}
}

// TestTieredDecodePinsBlob fills the L2 tier past its budget from inside
// a decode callback: the blob being decoded is pinned and must survive
// the eviction pressure; the idle blob is the victim.
func TestTieredDecodePinsBlob(t *testing.T) {
	c := NewTiered(0, 100) // L1 keeps no unpinned block: a re-Get decodes from L2
	var reads atomic.Int64
	blobA := []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa") // 60 B
	blobB := make([]byte, 60)
	decodeA := func(blob []byte, _ any) (any, int64, error) {
		// While A's blob is pinned by this decode, load B: 120 resident
		// bytes against a 100-byte budget forces an eviction pass.
		hB, err := c.GetTiered(key(1, 0, 1), 0, rawLoad(&reads, blobB), sizedDecode(new(atomic.Int64), 1))
		if err != nil {
			t.Error(err)
		}
		hB.Release()
		if st := c.Stats(); st.L2PinnedBytes != 60 {
			t.Errorf("mid-decode L2PinnedBytes = %d, want 60 (blob A pinned)", st.L2PinnedBytes)
		}
		if string(blob) != string(blobA) {
			t.Error("blob A corrupted mid-decode")
		}
		return string(blob), int64(len(blob)), nil
	}
	hA, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, blobA), decodeA)
	if err != nil {
		t.Fatal(err)
	}
	hA.Release()
	st := c.Stats()
	// B (unpinned) was evicted to fit the budget; A's blob is still here.
	if st.L2Evictions != 1 || st.L2Blocks != 1 || st.L2ResidentBytes != 60 {
		t.Fatalf("stats = %+v, want blob B evicted and A resident", st)
	}
	var decodes atomic.Int64
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, blobA), sizedDecode(&decodes, 1))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if reads.Load() != 2 || decodes.Load() != 1 {
		t.Fatalf("reads=%d (want 2: A once, B once) decodes=%d", reads.Load(), decodes.Load())
	}
}

// TestTieredInvalidateBothTiers: a generation swap must drop the encoded
// blobs too, or a compacted-away sub-shard could be re-decoded from
// stale bytes.
func TestTieredInvalidateBothTiers(t *testing.T) {
	c := NewTiered(-1, -1)
	var reads atomic.Int64
	for j := 0; j < 3; j++ {
		h, err := c.GetTiered(key(1, 0, j), 0, rawLoad(&reads, make([]byte, 10)), sizedDecode(new(atomic.Int64), 1))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	c.InvalidateGeneration(1)
	st := c.Stats()
	if st.Blocks != 0 || st.L2Blocks != 0 || st.ResidentBytes != 0 || st.L2ResidentBytes != 0 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	if st.Invalidations != 6 { // 3 decoded blocks + 3 blobs
		t.Fatalf("invalidations = %d, want 6", st.Invalidations)
	}
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, make([]byte, 10)), sizedDecode(new(atomic.Int64), 1))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if reads.Load() != 4 {
		t.Fatalf("invalidated blob served from L2 (reads=%d, want 4)", reads.Load())
	}
}

// TestTieredSingleFlight: concurrent callers for the two replicas of one
// sub-shard coalesce to one disk read and one decode per replica.
func TestTieredSingleFlight(t *testing.T) {
	c := NewTiered(-1, -1)
	var reads, decodes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			k := Key{Gen: 1, I: 3, J: 4, Transpose: w%2 == 0}
			h, err := c.GetTiered(k, 0, rawLoad(&reads, make([]byte, 8)), sizedDecode(&decodes, 2))
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		}(w)
	}
	close(start)
	wg.Wait()
	if reads.Load() != 2 || decodes.Load() != 2 {
		t.Fatalf("read %d and decoded %d times under concurrency, want 2 each (one per replica)", reads.Load(), decodes.Load())
	}
}

// TestTieredErrors: a failed disk read caches nothing anywhere; a failed
// decode keeps the blob (the bytes are fine — the retry decodes from L2).
func TestTieredErrors(t *testing.T) {
	c := NewTiered(-1, -1)
	boom := errors.New("boom")
	var reads atomic.Int64
	_, err := c.GetTiered(key(1, 0, 0), 0,
		func() ([]byte, error) { reads.Add(1); return nil, boom },
		sizedDecode(new(atomic.Int64), 1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Blocks != 0 || st.L2Blocks != 0 {
		t.Fatalf("error cached: %+v", st)
	}
	_, err = c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, make([]byte, 8)),
		func([]byte, any) (any, int64, error) { return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("decode err = %v", err)
	}
	st := c.Stats()
	if st.Blocks != 0 || st.L2Blocks != 1 {
		t.Fatalf("after decode error: %+v, want blob kept, block not", st)
	}
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, make([]byte, 8)), sizedDecode(new(atomic.Int64), 1))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if reads.Load() != 2 {
		t.Fatalf("reads = %d, want 2 (decode retry must hit L2)", reads.Load())
	}
}

// TestTieredDisabledFallsBack: New() and the default split leave the L2
// tier off and GetTiered degrades to plain Get semantics.
func TestTieredDisabledFallsBack(t *testing.T) {
	c := NewTiered(SplitBudget(1<<20, 0))
	if New(1<<20).L2Budget() != 0 || c.L2Budget() != 0 || c.Budget() != 1<<20 {
		t.Fatalf("default budgets: L1 %d, L2 %d", c.Budget(), c.L2Budget())
	}
	var reads, decodes atomic.Int64
	h, err := c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, make([]byte, 8)), sizedDecode(&decodes, 2))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h, err = c.GetTiered(key(1, 0, 0), 0, rawLoad(&reads, make([]byte, 8)), sizedDecode(&decodes, 2))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.L2Hits != 0 || st.L2Blocks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if reads.Load() != 1 || decodes.Load() != 1 {
		t.Fatalf("reads=%d decodes=%d", reads.Load(), decodes.Load())
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		total  int64
		frac   float64
		l1, l2 int64
	}{
		{1000, 0, 1000, 0},    // default: the whole budget decoded
		{1000, 0.5, 500, 500}, // opt-in
		{1000, -1, 1000, 0},   // negative frac still means off
		{-1, 0.5, -1, 0},      // unlimited L1 disables L2
		{1000, 2, 100, 900},   // clamped to 0.9
		{0, 0.5, 0, 0},        // zero budget stays zero
	}
	for _, tc := range cases {
		l1, l2 := SplitBudget(tc.total, tc.frac)
		if l1 != tc.l1 || l2 != tc.l2 {
			t.Errorf("SplitBudget(%d, %v) = (%d, %d), want (%d, %d)",
				tc.total, tc.frac, l1, l2, tc.l1, tc.l2)
		}
	}
}

// TestTieredConcurrentChurn is the -race proof for the two-tier paths.
func TestTieredConcurrentChurn(t *testing.T) {
	c := NewTiered(512, 128) // both tiers under constant pressure
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				k := Key{Gen: uint64(1 + n%3), I: n % 5, J: (n + w) % 5, Transpose: n%2 == 0}
				h, err := c.GetTiered(k, 0,
					func() ([]byte, error) { return make([]byte, 16), nil },
					func(b []byte, _ any) (any, int64, error) { return b, 64, nil })
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
	if st.PinnedBytes != 0 || st.L2PinnedBytes != 0 {
		t.Fatalf("pinned bytes leaked: %+v", st)
	}
	if st.ResidentBytes > 512 || st.L2ResidentBytes > 128 {
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
	// L2 hits dilute the ratio: they are cheaper than disk but not free.
	if r := (Stats{Hits: 2, L2Hits: 1, Misses: 1}).HitRatio(); r != 0.5 {
		t.Fatalf("tiered ratio = %v, want 0.5", r)
	}
}

// spareDecode is a decode closure that records the spare it was offered
// and returns a fresh value of the given size.
func spareDecode(offered *any, val string, size int64) func([]byte, any) (any, int64, error) {
	return func(_ []byte, spare any) (any, int64, error) {
		*offered = spare
		return val, size, nil
	}
}

// getSized loads key through GetTiered as a block of the given size,
// asking for a spare of at least want bytes, and reports what decode was
// offered.
func getSized(t *testing.T, c *Cache, k Key, want, size int64) (*Handle, any) {
	t.Helper()
	var reads atomic.Int64
	var offered any
	h, err := c.GetTiered(k, want, rawLoad(&reads, []byte{1}), spareDecode(&offered, fmt.Sprint(k.J), size))
	if err != nil {
		t.Fatal(err)
	}
	return h, offered
}

// TestSparesAreEvictedBlocksWithinOnePinnedBatch pins down the hand-back:
// a block evicted at refs == 0 is offered to the next decode that wants
// its size, once; the spares never exceed the bytes pinned when a block
// is let go (oldest dropped first, nothing kept when nothing is pinned);
// and a fit is at least want and at most twice it, smallest first.
func TestSparesAreEvictedBlocksWithinOnePinnedBatch(t *testing.T) {
	for _, l2 := range []int64{0, 1 << 20} { // both GetTiered paths
		c := NewTiered(0, l2) // L1 keeps nothing unpinned: Release evicts

		// Nothing pinned: the evicted block is not kept.
		h, _ := getSized(t, c, key(1, 0, 0), 0, 100)
		h.Release()
		if h, got := getSized(t, c, key(1, 0, 1), 100, 100); got != nil {
			t.Fatalf("l2=%d: spare %v offered though nothing was pinned at eviction", l2, got)
		} else {
			h.Release()
		}

		pin, _ := getSized(t, c, key(1, 9, 9), 0, 250) // bounds the spares at 250 B
		for j, size := range []int64{100, 120, 80} {   // 100 is dropped when 80 arrives: 300 > 250
			h, _ := getSized(t, c, key(1, 1, j), 0, size)
			h.Release()
		}
		if c.spareBytes != 200 || len(c.spares) != 2 {
			t.Fatalf("l2=%d: %d spares of %d B, want the newest two (200 B) under 250 B pinned", l2, len(c.spares), c.spareBytes)
		}
		// want 70: 80 and 120 both fit (≤ 140); the smaller is taken.
		h1, got := getSized(t, c, key(1, 2, 0), 70, 70)
		if got != "2" {
			t.Fatalf("l2=%d: want=70 was offered %v, want the 80 B block", l2, got)
		}
		// want 50: 120 is more than twice it. want 130: nothing that large.
		for _, want := range []int64{50, 130} {
			h, got := getSized(t, c, key(1, 3, int(want)), want, want)
			if got != nil {
				t.Fatalf("l2=%d: want=%d was offered %v", l2, want, got)
			}
			defer h.Release()
		}
		// A spare is handed out once.
		h2, got := getSized(t, c, key(1, 2, 1), 110, 110)
		if got != "1" {
			t.Fatalf("l2=%d: want=110 was offered %v, want the 120 B block", l2, got)
		}
		if h3, got := getSized(t, c, key(1, 2, 2), 110, 110); got != nil {
			t.Fatalf("l2=%d: the 120 B block was offered twice", l2)
		} else {
			h3.Release()
		}
		h1.Release()
		h2.Release()
		pin.Release()
	}
}

// TestSparesFromInvalidation: blocks dropped by InvalidateGeneration are
// recycled like evicted ones — at once when unpinned, at the final
// Release when pinned — and never while a handle still reaches them.
func TestSparesFromInvalidation(t *testing.T) {
	c := NewTiered(1<<20, 0)
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
