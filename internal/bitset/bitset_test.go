package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // crosses two word boundaries
	for i := 0; i < 130; i++ {
		if s.Test(i) {
			t.Fatalf("bit %d of a new set is set", i)
		}
	}
	set := map[int]bool{0: true, 63: true, 64: true, 129: true}
	for i := range set {
		s.Set(i)
	}
	for i := 0; i < 130; i++ {
		if s.Test(i) != set[i] {
			t.Fatalf("bit %d: Test = %v, want %v", i, s.Test(i), set[i])
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).Set(10)
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

// TestQuickCountMatchesMap cross-checks against a map-based model under
// random Set sequences: Test agrees bit by bit, so the set bits it
// counts are the model's.
func TestQuickCountMatchesMap(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 257
		s := New(n)
		model := map[int]bool{}
		for k := 0; k < int(nOps); k++ {
			i := rng.Intn(n)
			s.Set(i)
			model[i] = true
		}
		count := 0
		for i := 0; i < n; i++ {
			if s.Test(i) != model[i] {
				return false
			}
			if s.Test(i) {
				count++
			}
		}
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
