package blockcache

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// tierProbe drives one instantiation of tier through the public API, so
// every policy test runs against decoded blocks and encoded blobs alike.
type tierProbe struct {
	name string
	// open makes a cache whose probed tier has the given budget.
	open func(budget int64) *Cache
	// get asks for k as a value of size bytes and reports whether the
	// probed tier already held it.
	get func(c *Cache, k Key, size int64) (hit bool)
	// held is the probed tier's retained bytes and tracked keys.
	held func(c *Cache) (retained int64, counts int)
	// tracks reports whether the probed tier holds a count for k.
	tracks func(c *Cache, k Key) bool
}

var tierProbes = []tierProbe{
	{
		name: "L1",
		open: New,
		get: func(c *Cache, k Key, size int64) bool {
			hit := true
			h, err := c.Get(k, func() (any, int64, error) { hit = false; return k, size, nil })
			if err != nil {
				panic(err)
			}
			h.Release()
			return hit
		},
		held:   func(c *Cache) (int64, int) { return c.l1.retained, len(c.l1.count) },
		tracks: func(c *Cache, k Key) bool { return c.l1.count[k] > 0 },
	},
	{
		name: "L2",
		open: func(budget int64) *Cache { return NewTiered(0, budget) }, // L1 keeps nothing: every get reaches L2
		get: func(c *Cache, k Key, size int64) bool {
			hit := true
			h, err := c.GetTiered(k, 0,
				func() ([]byte, error) { hit = false; return make([]byte, size), nil },
				func(blob []byte, _ any) (any, int64, error) { return k, 1, nil })
			if err != nil {
				panic(err)
			}
			h.Release()
			return hit
		},
		held:   func(c *Cache) (int64, int) { return c.l2.retained, len(c.l2.count) },
		tracks: func(c *Cache, k Key) bool { return c.l2.count[k] > 0 },
	},
}

// sweep asks for every key once, in order, and returns the bytes that
// were hits and the keys they were.
func (p tierProbe) sweep(c *Cache, keys []Key, sizes []int64) (hitBytes int64, hits []Key) {
	for i, k := range keys {
		if p.get(c, k, sizes[i]) {
			hitBytes += sizes[i]
			hits = append(hits, k)
		}
	}
	return
}

func keysOf(gen uint64, transpose bool, n int) []Key {
	keys := make([]Key, n)
	for j := range keys {
		keys[j] = Key{Gen: gen, I: j / 4, J: j % 4, Transpose: transpose}
	}
	return keys
}

func sum(sizes []int64) (n int64) {
	for _, s := range sizes {
		n += s
	}
	return n
}

// TestCyclicSweepRetainsWhatFits is the policy's reason to exist: every
// engine iteration is the same sweep, and a sweep through a budget of C
// bytes must hit about C bytes every time round — LRU hits none. The
// retained set is whatever fitted first and must not move: not when the
// counts are halved in the middle of a cycle, which 60 cycles see seven
// times, and not for a size vector like RMAT's, where one cell is a
// third of the bytes.
func TestCyclicSweepRetainsWhatFits(t *testing.T) {
	const cycles = 60
	if cycles < 3*agePeriod {
		t.Fatal("fixture: the sweep must span at least three ageings")
	}
	equal := slices.Repeat([]int64{100}, 24)
	// One cell a third of the 3000 bytes, then a tail.
	skewed := append([]int64{1000, 300, 250, 200, 150, 100}, slices.Repeat([]int64{50}, 20)...)
	for _, p := range tierProbes {
		for _, tc := range []struct {
			name  string
			sizes []int64
		}{{"equal", equal}, {"skewed", skewed}} {
			for _, div := range []int64{2, 4} {
				t.Run(fmt.Sprintf("%s/%s/budget=1/%d", p.name, tc.name, div), func(t *testing.T) {
					n, total, largest := len(tc.sizes), sum(tc.sizes), slices.Max(tc.sizes)
					budget := total / div
					c := p.open(budget)
					keys := keysOf(1, false, n)
					p.sweep(c, keys, tc.sizes) // fills the cache
					var first []Key
					for cycle := 1; cycle < cycles; cycle++ {
						hitBytes, hits := p.sweep(c, keys, tc.sizes)
						if first == nil {
							first = hits
						}
						if !slices.Equal(hits, first) {
							t.Fatalf("cycle %d: the retained set moved: hits %v, were %v", cycle, hits, first)
						}
						if want := float64(budget-largest) * 0.9; float64(hitBytes) < want {
							t.Fatalf("cycle %d: %d hit bytes of %d under a budget of %d, want >= %.0f", cycle, hitBytes, total, budget, want)
						}
						if retained, counts := p.held(c); retained > budget || counts > n {
							t.Fatalf("cycle %d: %d bytes retained under a budget of %d, %d counts for %d keys", cycle, retained, budget, counts, n)
						}
					}
				})
			}
		}
	}
}

// TestInterleavedSweepsShareBudget: two runs sweeping disjoint key sets
// through one cache — the two replicas of a store, or two stores — each
// keep a share of it.
func TestInterleavedSweepsShareBudget(t *testing.T) {
	const n = 16
	sizes := slices.Repeat([]int64{100}, n)
	for _, p := range tierProbes {
		for _, tc := range []struct {
			name string
			b    []Key
		}{{"replicas", keysOf(1, true, n)}, {"generations", keysOf(2, false, n)}} {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				c := p.open(n * 100) // half of the two sets together
				a := keysOf(1, false, n)
				var hitsA, hitsB int
				for cycle := 0; cycle < 50; cycle++ {
					hitsA, hitsB = 0, 0
					for j := range a {
						if p.get(c, a[j], sizes[j]) {
							hitsA++
						}
						if p.get(c, tc.b[j], sizes[j]) {
							hitsB++
						}
					}
				}
				if hitsA == 0 || hitsB == 0 || hitsA+hitsB != n {
					t.Fatalf("last cycle: %d and %d hits, want both sets served and %d between them", hitsA, hitsB, n)
				}
			})
		}
	}
}

// TestDeadSetIsDisplaced: blocks that were retained over a hundred sweeps
// and are then never asked for again lose their place to a live sweep —
// nobody has to invalidate them — within 2·agePeriod+2 cycles: a set
// swept alone holds counts of at most 2·agePeriod, a live key gains one
// a cycle, and an ageing in between halves both. After the five ageings
// that take a count of 2·agePeriod to zero the dead keys are not
// tracked either.
func TestDeadSetIsDisplaced(t *testing.T) {
	const nDead, nLive = 8, 16
	sizes := slices.Repeat([]int64{100}, nLive)
	for _, p := range tierProbes {
		t.Run(p.name, func(t *testing.T) {
			c := p.open(nDead * 100)
			dead, live := keysOf(1, false, nDead), keysOf(2, false, nLive)
			for cycle := 0; cycle < 100; cycle++ {
				p.sweep(c, dead, sizes)
			}
			if hitBytes, _ := p.sweep(c, dead, sizes); hitBytes != nDead*100 {
				t.Fatalf("the first set was not retained whole: %d hit bytes", hitBytes)
			}
			displaced := 0
			for cycle := 1; cycle <= 2*agePeriod+2; cycle++ {
				if hitBytes, _ := p.sweep(c, live, sizes); hitBytes == nDead*100 && displaced == 0 {
					displaced = cycle
				}
			}
			if displaced == 0 {
				t.Fatalf("after %d cycles the live sweep does not own the budget", 2*agePeriod+2)
			}
			t.Logf("dead set displaced after %d cycles", displaced)
			// One ageing every agePeriod Gets per tracked key.
			for cycle := 0; cycle < 5*agePeriod*(nDead+nLive)/nLive; cycle++ {
				p.sweep(c, live, sizes)
			}
			for _, k := range dead {
				if p.tracks(c, k) {
					t.Fatalf("%v is still counted long after its last Get", k)
				}
			}
			if hitBytes, _ := p.sweep(c, dead[:1], sizes); hitBytes != 0 {
				t.Fatal("a displaced block was still served")
			}
		})
	}
}

// TestCountsAreBounded: the counters hold nothing of an invalidated
// generation but what is asked for again afterwards, and a caller that
// never asks for a key twice cannot grow them without bound.
func TestCountsAreBounded(t *testing.T) {
	const n = 16
	sizes := slices.Repeat([]int64{100}, n)
	for _, p := range tierProbes {
		t.Run(p.name, func(t *testing.T) {
			c := p.open(n * 100)
			old, cur := keysOf(1, false, n), keysOf(2, false, n)
			for cycle := 0; cycle < 3; cycle++ {
				p.sweep(c, old, sizes)
				p.sweep(c, cur, sizes)
			}
			c.InvalidateGeneration(1)
			p.get(c, old[0], 100) // a straggler: counted from one again
			if _, counts := p.held(c); counts != n+1 {
				t.Fatalf("%d keys counted after the invalidation, want %d live and one asked for since", counts, n)
			}
			for i := 0; i < 100_000; i++ {
				p.get(c, Key{Gen: 3, I: i}, 100)
				if _, counts := p.held(c); counts > maxTracked+1 {
					t.Fatalf("%d keys counted after %d one-shot Gets", counts, i+1)
				}
			}
			if retained, _ := p.held(c); retained > n*100 {
				t.Fatalf("%d bytes retained under a budget of %d", retained, n*100)
			}
		})
	}
}

// TestUnlimitedBudgetNeitherCountsNorDrops: a cache that admits
// everything has nothing to decide and pays nothing for deciding.
func TestUnlimitedBudgetNeitherCountsNorDrops(t *testing.T) {
	for _, p := range tierProbes {
		c := p.open(-1)
		keys, sizes := keysOf(1, false, 16), slices.Repeat([]int64{100}, 16)
		p.sweep(c, keys, sizes)
		if hitBytes, _ := p.sweep(c, keys, sizes); hitBytes != 1600 {
			t.Fatalf("%s: %d hit bytes of 1600", p.name, hitBytes)
		}
		if _, counts := p.held(c); counts != 0 {
			t.Fatalf("%s: an unlimited tier counts %d keys", p.name, counts)
		}
		if st := c.Stats(); st.L2Evictions != 0 || p.name == "L1" && st.Evictions != 0 {
			t.Fatalf("%s: an unlimited tier dropped blocks: %+v", p.name, st)
		}
	}
}

// TestUnadmittedBlockIsUnreachableBeforeItIsRecycled: a block that was
// not admitted becomes a spare at its last Release, and the next decode
// overwrites its arrays. A Get for the same key racing with that Release
// must get the block while it is still pinned or load it afresh — never
// arrays that a decode for another key is writing. Every holder checks
// its block for as long as it holds it; under -race a recycled array
// reaching a reader is also a reported race.
func TestUnadmittedBlockIsUnreachableBeforeItIsRecycled(t *testing.T) {
	const size = 256
	c := New(0) // nothing is ever admitted: every Release is a hand-over
	pin, err := c.Get(key(9, 9, 9), func() (any, int64, error) { return nil, 4 * size, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release() // the spares may hold as much as this pins
	var recycled sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				id := byte((n + w) % 3)
				h, err := c.GetTiered(key(1, 0, int(id)), size,
					func() ([]byte, error) { return nil, nil },
					func(_ []byte, spare any) (any, int64, error) {
						buf, _ := spare.([]byte)
						if buf == nil {
							buf = make([]byte, size)
						} else {
							recycled.Store(true, true)
						}
						for i := range buf {
							buf[i] = id
						}
						return buf, size, nil
					})
				if err != nil {
					t.Error(err)
					return
				}
				for _, b := range h.Value().([]byte) {
					if b != id {
						t.Errorf("block %d holds %d: its arrays were recycled while it was reachable", id, b)
						return
					}
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if _, ok := recycled.Load(true); !ok {
		t.Fatal("fixture: no decode was ever handed a spare")
	}
}
