package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// colvec is one column's storage: a typed payload slice (the batch
// executor's unit of work) plus a null bitmap. Every non-null value of a
// column has one kind — Table.CheckRows refuses a row whose value's kind is
// not its column's declared type before any column sees it — so a column
// stores bare payloads: []int64 for ints and dates, []float64, and for
// strings []uint32 codes into a dictionary, and kernels run typed loops
// over them. The zero algebra.Value is the canonical null: it is recorded
// in the bitmap, not the payload.
//
// A string column's dictionary holds each string once, in the order the
// column (or the lineage it extends) first met it, and every code indexes
// it — a null's placeholder, "" unless a segment said otherwise, is coded
// too. Codes are never reassigned, so a column's codes and dictionary
// prefix are as immutable as the rest of it.
//
// A column is immutable once its table is published; a table grows by
// building a successor (cloneAppendTable), and the successor shares the
// payload's backing array when it can. The part of a backing array past a
// column's length belongs to the first successor that claims it. The claim
// is a counter shared by every colvec over the array, holding the row count
// up to which the array is taken; a successor appending k rows to a column
// of n claims rows [n, n+k) with one compare-and-swap of the counter from n
// to n+k. When the claim holds it writes its rows there, in place, past the
// end of every reader's shorter column; when it fails — the column already
// has a successor: a view refreshed twice in one epoch, an epoch let go and
// retried, a projection sharing the column — it copies, as every append
// used to. So each position of an array is written once, and a column over
// it is a prefix of every longer column over it. A column without a claim
// (an operator's output, a slice, a decoded segment) shares nothing: its
// first successor copies, and the copy carries a claim. Insert and
// appendTable follow the same rule. The null bitmap is never shared: every
// successor copies it (n/64 words).
//
// The dictionary follows the claim. Only the column that holds a claim may
// add entries past its dictionary's length, in place, and only it touches
// the string→code index that needs; every other column over the array
// reads its own prefix and nothing past it. A column that copies — no
// claim, or a claim that failed — codes its rows afresh against a
// dictionary of its own. So a successor's strings cost O(Δ), and a column
// that copies holds only the strings of its rows.
//
// Operators build fresh payloads (gather), except project, which shares
// whole immutable columns, and slice, which shares payload backing
// capacity-capped, so nothing ever appends into it in place. A gathered or
// sliced string column shares its source's dictionary the same way.
type colvec struct {
	// kind is the kind of every non-null value appended so far; 0 while
	// the column is empty or all-null.
	kind algebra.Type
	// Typed payloads; the one of kind is non-nil once kind is set (nulls
	// hold a zero placeholder so indices stay aligned).
	ints   []int64 // TypeInt and TypeDate payloads
	floats []float64
	codes  []uint32 // TypeString payloads: row i holds dict[codes[i]]
	// dict is the string column's dictionary (see above).
	dict []string
	// index maps each string of dict to its code — and those its claim's
	// successors added past it. Only a column that may extend dict has one:
	// it is nil on a column that reads another's dictionary (a gather, a
	// slice), and shared along a claim, never beyond it.
	index map[string]uint32
	// nulls marks rows holding the canonical null (the zero Value); nil
	// when the column has none.
	nulls    []uint64
	numNulls int
	n        int
	// claim is the append claim on the payload's backing array (see
	// above); nil when the column has none to share.
	claim *atomic.Int64
	// post caches the string column's postings (see postings); nil until σ
	// first tests the column for equality.
	post atomic.Pointer[postings]
}

// bit helpers for the null bitmap. bitSet grows a bitmap only as far as its
// highest null, so a row past the last word holds no null.

func bitGet(bm []uint64, i int) bool {
	if i>>6 >= len(bm) {
		return false
	}
	return bm[i>>6]&(1<<(uint(i)&63)) != 0
}

func bitSet(bm []uint64, i int) []uint64 {
	for len(bm) <= i>>6 {
		bm = append(bm, 0)
	}
	bm[i>>6] |= 1 << (uint(i) & 63)
	return bm
}

// hasNulls reports whether any row of the column is null.
func (c *colvec) hasNulls() bool { return c.numNulls > 0 }

// append adds one value to the column: the null, or a value of the
// column's kind (any kind while it has none). Every row reaches a column
// through Table.CheckRows or from a column of the same declared type, so
// another value is a broken invariant, not input to refuse.
func (c *colvec) append(v algebra.Value) {
	if v == (algebra.Value{}) {
		c.nulls = bitSet(c.nulls, c.n)
		c.numNulls++
		c.appendPlaceholder()
		c.n++
		return
	}
	if c.kind == 0 && v.IsValid() {
		c.adoptKind(v.Kind, c.n+1)
	}
	if c.kind == 0 || v.Kind != c.kind {
		panic(fmt.Sprintf("engine: a %s value appended to a %s column", v.Kind, c.kind))
	}
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		c.ints = append(c.ints, v.Int)
	case algebra.TypeFloat:
		c.floats = append(c.floats, v.Float)
	case algebra.TypeString:
		c.codes = append(c.codes, c.code(v.Str))
	}
	c.n++
}

// code returns s's code, adding s to the dictionary when it is not there.
// Only a column that owns the room past its dictionary calls it — one
// without a claim, or one whose claim holds — and it holds the dictionary's
// index, or has no dictionary yet.
func (c *colvec) code(s string) uint32 {
	if k, ok := c.index[s]; ok {
		return k
	}
	if c.index == nil {
		c.index = make(map[string]uint32)
	}
	k := uint32(len(c.dict))
	c.dict = append(c.dict, s)
	c.index[s] = k
	return k
}

// strAt returns row i's string, or a null's placeholder.
func (c *colvec) strAt(i int) string { return c.dict[c.codes[i]] }

// adoptKind fixes the column's kind after a kindless (all-null) prefix,
// backfilling zero placeholders for the nulls already recorded, in a fresh
// array with room for rows rows; having no claim, it shares nothing.
func (c *colvec) adoptKind(k algebra.Type, rows int) {
	c.kind = k
	c.claim = nil
	switch k {
	case algebra.TypeInt, algebra.TypeDate:
		c.ints = make([]int64, c.n, rows)
	case algebra.TypeFloat:
		c.floats = make([]float64, c.n, rows)
	case algebra.TypeString:
		c.codes, c.dict, c.index = make([]uint32, c.n, rows), nil, nil
		if c.n > 0 {
			c.code("") // the nulls' placeholder, code 0
		}
	}
}

// appendPlaceholder keeps the typed payload index-aligned under a null.
func (c *colvec) appendPlaceholder() {
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		c.ints = append(c.ints, 0)
	case algebra.TypeFloat:
		c.floats = append(c.floats, 0)
	case algebra.TypeString:
		c.codes = append(c.codes, c.code(""))
	}
}

// valueAt reconstructs row i's value.
func (c *colvec) valueAt(i int) algebra.Value {
	if bitGet(c.nulls, i) {
		return algebra.Value{}
	}
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		return algebra.Value{Kind: c.kind, Int: c.ints[i]}
	case algebra.TypeFloat:
		return algebra.Value{Kind: algebra.TypeFloat, Float: c.floats[i]}
	case algebra.TypeString:
		return algebra.Value{Kind: algebra.TypeString, Str: c.strAt(i)}
	default:
		return algebra.Value{}
	}
}

// newClaim is the claim on a fresh backing array that holds n rows.
func newClaim(n int) *atomic.Int64 {
	claim := new(atomic.Int64)
	claim.Store(int64(n))
	return claim
}

// claimTail claims the k rows past the column's end of its backing array.
func (c *colvec) claimTail(k int) bool {
	return c.claim != nil && c.claim.CompareAndSwap(int64(c.n), int64(c.n+k))
}

// room returns s with capacity for k more elements: s itself when the caller
// claimed them and the array has the room, else a copy in a fresh array with
// append's spare capacity. It reports whether the array is fresh.
func room[T any](s []T, k int, claimed bool) ([]T, bool) {
	if !claimed {
		s = s[:len(s):len(s)]
	}
	fresh := cap(s)-len(s) < k
	return slices.Grow(s, k), fresh
}

// appendBulk returns s followed by add, or by k zero values when add is nil
// (the placeholders under a kindless column's nulls); see room.
func appendBulk[T any](s, add []T, k int, claimed bool) ([]T, bool) {
	out, fresh := room(s, k, claimed)
	out = out[:len(s)+k]
	if add == nil {
		clear(out[len(s):])
	} else {
		copy(out[len(s):], add)
	}
	return out, fresh
}

// appended returns a column holding c's rows followed by o's, and whether it
// claimed c's backing array. A typed column takes a column of its kind or a
// kindless (all null) one in one bulk copy of o's payload — in place past
// c.n when the claim holds and the array has room, into a fresh array
// otherwise; a string column codes o's strings one by one against its
// dictionary (strRoom). A kindless c is rebuilt value by value in fresh
// arrays, which claim nothing of c's.
func (c *colvec) appended(o *colvec) (*colvec, bool) {
	out := &colvec{kind: c.kind, n: c.n + o.n, numNulls: c.numNulls + o.numNulls}
	var claimed, fresh bool
	switch {
	case c.kind != 0 && (o.kind == c.kind || o.kind == 0):
		claimed = c.claimTail(o.n)
		switch c.kind {
		case algebra.TypeInt, algebra.TypeDate:
			out.ints, fresh = appendBulk(c.ints, o.ints, o.n, claimed)
		case algebra.TypeFloat:
			out.floats, fresh = appendBulk(c.floats, o.floats, o.n, claimed)
		case algebra.TypeString:
			out.codes, out.dict, out.index = c.codes, c.dict, c.index
			fresh = out.strRoom(o.n, claimed)
			for i := 0; i < o.n; i++ {
				s := "" // under a kindless o, a null's placeholder
				if o.codes != nil {
					s = o.strAt(i)
				}
				out.codes = append(out.codes, out.code(s))
			}
		}
	default:
		out = &colvec{}
		for i := 0; i < c.n; i++ {
			out.append(c.valueAt(i))
		}
		for i := 0; i < o.n; i++ {
			out.append(o.valueAt(i))
		}
		if out.kind != 0 {
			out.claim = newClaim(out.n)
		}
		return out, false
	}
	out.claim = c.claim
	if fresh {
		out.claim = newClaim(out.n)
	}
	if out.numNulls > 0 {
		out.nulls = orBits(append(make([]uint64, 0, (out.n+63)/64), c.nulls...), c.n, o.nulls, o.n)
	}
	return out, claimed
}

// strRoom readies a string column's codes to take k more rows by append, and
// its dictionary their strings. When the caller claimed the rows and the
// column holds its dictionary's index, the codes get their room as room
// gives it and the dictionary stays shared, to be extended in place;
// otherwise the rows are coded afresh against a dictionary of the column's
// own, in a fresh array with append's spare capacity. It reports whether the
// codes are in a fresh array.
func (c *colvec) strRoom(k int, claimed bool) bool {
	if claimed && (c.index != nil || len(c.dict) == 0) {
		var fresh bool
		c.codes, fresh = room(c.codes, k, true)
		return fresh
	}
	old, dict := c.codes, c.dict
	// Room for at least one row is always a fresh array, which the codes are
	// then rewritten into from the first.
	grown, _ := room(old, max(k, 1), false)
	c.codes, c.dict, c.index = grown[:0], nil, nil
	for _, code := range old {
		c.codes = append(c.codes, c.code(dict[code]))
	}
	return true
}

// orBits returns dst, grown to hold n+m bits, with src's m bits set from
// bit n on.
func orBits(dst []uint64, n int, src []uint64, m int) []uint64 {
	for len(dst) < (n+m+63)/64 {
		dst = append(dst, 0)
	}
	shift, at := uint(n&63), n>>6
	for j, w := range src[:min(len(src), (m+63)/64)] {
		dst[at+j] |= w << shift
		if shift != 0 && at+j+1 < len(dst) {
			dst[at+j+1] |= w >> (64 - shift)
		}
	}
	return dst
}

// reserve readies the column to take k more rows by append, in place. A
// column without a claim appends into its own array; one with a claim claims
// the k rows past its end, or, when that fails or its array lacks the room,
// moves to a fresh array with a claim of its own. It reports whether the
// claim held (always, for a column without one).
//
// A string column without a claim or an index (a slice, a gather: a delta
// buffer trimmed at a commit) reads its source's dictionary, all of it; it
// codes its own rows afresh first, so what it keeps is its own strings.
func (c *colvec) reserve(k int) bool {
	if c.claim == nil {
		if c.index == nil && len(c.dict) > 0 {
			c.strRoom(k, false)
		}
		return true
	}
	claimed := c.claimTail(k)
	var fresh bool
	switch {
	case c.ints != nil:
		c.ints, fresh = room(c.ints, k, claimed)
	case c.floats != nil:
		c.floats, fresh = room(c.floats, k, claimed)
	case c.codes != nil:
		fresh = c.strRoom(k, claimed)
	}
	if fresh {
		c.claim = newClaim(c.n + k)
	}
	return claimed
}

// slice returns rows [lo, hi) as a column view. Typed payloads share
// backing arrays with the parent, capacity-capped so parent appends can
// never write into the view (the same discipline row slices had); the
// null bitmap, which cannot be sliced at a bit offset, is rebuilt.
func (c *colvec) slice(lo, hi int) *colvec {
	out := &colvec{kind: c.kind, n: hi - lo}
	if c.ints != nil {
		out.ints = c.ints[lo:hi:hi]
	}
	if c.floats != nil {
		out.floats = c.floats[lo:hi:hi]
	}
	if c.codes != nil {
		out.codes, out.dict = c.codes[lo:hi:hi], c.sharedDict()
	}
	if c.numNulls > 0 {
		for i := lo; i < hi; i++ {
			if bitGet(c.nulls, i) {
				out.nulls = bitSet(out.nulls, i-lo)
				out.numNulls++
			}
		}
	}
	return out
}

// sharedDict is the column's dictionary for a column that reads it and never
// extends it: capacity-capped, so an append would copy.
func (c *colvec) sharedDict() []string { return c.dict[:len(c.dict):len(c.dict)] }

// gather returns a fresh column holding the rows named by idx, in order; a
// string column's codes index the source's dictionary, which it shares.
func (c *colvec) gather(idx []int32) *colvec {
	out := &colvec{kind: c.kind, n: len(idx)}
	switch {
	case c.ints != nil:
		out.ints = make([]int64, len(idx))
		for o, i := range idx {
			out.ints[o] = c.ints[i]
		}
	case c.floats != nil:
		out.floats = make([]float64, len(idx))
		for o, i := range idx {
			out.floats[o] = c.floats[i]
		}
	case c.codes != nil:
		out.codes, out.dict = make([]uint32, len(idx)), c.sharedDict()
		for o, i := range idx {
			out.codes[o] = c.codes[i]
		}
	}
	if c.numNulls > 0 {
		for o, i := range idx {
			if bitGet(c.nulls, int(i)) {
				out.nulls = bitSet(out.nulls, o)
				out.numNulls++
			}
		}
	}
	return out
}

// postings is a string column's inverted index: the rows holding code k
// are rows[start[k]:start[k+1]], ascending. σ builds it the first time it
// tests a stored relation's column for equality with a literal, and then
// answers col = 'lit' with one list instead of a pass over every row. A
// published column is immutable, so its postings stay valid for its
// lifetime and cost no upkeep; the one mutable window is the setup phase,
// where Insert grows a column in place, and the row-count guard (as on
// Table.stats) drops postings the column has outgrown.
type postings struct {
	n     int // the column's row count when they were built
	start []int32
	rows  []int32
}

// postings returns the column's postings, building and caching them when
// it has none for its current rows. Concurrent first callers each build
// the same postings, and the last store wins.
func (c *colvec) postings() *postings {
	if p := c.post.Load(); p != nil && p.n == c.n {
		return p
	}
	codes := c.codes[:c.n]
	p := &postings{n: c.n, start: make([]int32, len(c.dict)+1), rows: make([]int32, c.n)}
	for _, code := range codes {
		p.start[code+1]++
	}
	for k := 1; k < len(p.start); k++ {
		p.start[k] += p.start[k-1]
	}
	// Each code's next free slot is start[code]; filling advances it to
	// start[code+1], and the shift below restores the starts.
	for i, code := range codes {
		p.rows[p.start[code]] = int32(i)
		p.start[code]++
	}
	copy(p.start[1:], p.start[:len(p.start)-1])
	p.start[0] = 0
	c.post.Store(p)
	return p
}

// eqLanes returns the rows of the string column that hold s, ascending,
// among the lanes of sel (nil: every row), read off its postings. The list
// without sel is the postings' own, capacity-capped: no caller writes into
// a selection vector.
func (c *colvec) eqLanes(s string, sel []int32) []int32 {
	code := slices.Index(c.dict, s)
	if code < 0 {
		return []int32{}
	}
	p := c.postings()
	list := p.rows[p.start[code]:p.start[code+1]:p.start[code+1]]
	if sel == nil {
		return list
	}
	out := make([]int32, 0, min(len(list), len(sel)))
	for len(list) > 0 && len(sel) > 0 {
		switch {
		case list[0] < sel[0]:
			list = list[1:]
		case list[0] > sel[0]:
			sel = sel[1:]
		default:
			out = append(out, list[0])
			list, sel = list[1:], sel[1:]
		}
	}
	return out
}
