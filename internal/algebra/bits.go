package algebra

import "math/bits"

// Bits is a set of small dense IDs (interned relations, join conditions,
// vertex or query positions). The zero value is the empty set; sets of
// different lengths compare as if padded with zeros.
type Bits []uint64

// NewBits returns an empty set with room for n IDs.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether i is in the set.
func (b Bits) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Set adds i, growing the set when needed.
func (b *Bits) Set(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

// Clear removes i.
func (b Bits) Clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << uint(i&63)
	}
}

// Or adds every member of o (o must not be longer than b; use Union when
// the lengths are unknown).
func (b Bits) Or(o Bits) {
	for i, w := range o {
		b[i] |= w
	}
}

// Union returns a new set holding the members of both.
func (b Bits) Union(o Bits) Bits {
	if len(o) > len(b) {
		b, o = o, b
	}
	out := make(Bits, len(b))
	copy(out, b)
	out.Or(o)
	return out
}

// SubsetOf reports whether every member of b is in o.
func (b Bits) SubsetOf(o Bits) bool {
	for i, w := range b {
		if i < len(o) {
			w &^= o[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have the same members.
func (b Bits) Equal(o Bits) bool { return b.SubsetOf(o) && o.SubsetOf(b) }

// Count returns the number of members.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member ≥ i, or -1 when there is none; loop with
// `for i := b.Next(0); i >= 0; i = b.Next(i + 1)` to visit members in
// ascending order.
func (b Bits) Next(i int) int {
	for w := i >> 6; w < len(b); w++ {
		word := b[w]
		if w == i>>6 {
			word &= ^uint64(0) << uint(i&63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}
