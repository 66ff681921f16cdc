// Package bitset provides a fixed-size bit set: the vertex masks SCC's
// and k-core's programs hold, whose frozen vertices emit their fold's
// Zero and keep their attribute.
//
// All methods panic on out-of-range indices, matching the behaviour of
// slice indexing.
package bitset

import "fmt"

const wordBits = 64

// Set is a fixed-length bit set.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set capable of holding n bits, all initially clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}
