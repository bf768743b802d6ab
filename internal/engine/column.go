package engine

import (
	"github.com/warehousekit/mvpp/internal/algebra"
)

// colvec is one column's storage: a typed payload slice (the batch
// executor's unit of work) plus a null bitmap. A column whose values all
// share one kind stores bare payloads — []int64 for ints and dates,
// []float64, []string — and kernels run typed loops over them; a column
// that ever receives heterogeneous kinds demotes itself to a generic
// []algebra.Value representation that the executors fall back to
// value-at-a-time. The zero algebra.Value is the canonical null: it is
// recorded in the bitmap, not the payload. Any other invalid value (an
// unknown Kind with payload bits set) also demotes to generic so it
// round-trips verbatim.
//
// Columns follow a copy-on-write discipline: operators only append to
// columns of tables still under construction, and every derived column
// (gather, slice-with-copy) owns fresh payload slices — except
// project, which shares whole immutable columns, and slice, which shares
// payload backing the way row slices used to share backing arrays.
type colvec struct {
	// kind is the uniform kind of every non-null value appended so far;
	// 0 while the column is empty or all-null, and meaningless once the
	// column is generic.
	kind algebra.Type
	// Typed payloads; exactly one is non-nil in typed state (nulls hold a
	// zero placeholder so indices stay aligned).
	ints   []int64 // TypeInt and TypeDate payloads
	floats []float64
	strs   []string
	// vals, when non-nil, is the authoritative generic representation.
	vals []algebra.Value
	// nulls marks rows holding the canonical null (the zero Value); nil
	// when the column has none.
	nulls    []uint64
	numNulls int
	n        int
}

// bit helpers for the null bitmap.

func bitGet(bm []uint64, i int) bool {
	if bm == nil {
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

// typedKind returns the column's uniform kind when the typed fast paths
// apply (typed state, at least implicitly typed); 0 when the column is
// generic or still kindless.
func (c *colvec) typedKind() algebra.Type {
	if c.vals != nil {
		return 0
	}
	return c.kind
}

// append adds one value to the column.
func (c *colvec) append(v algebra.Value) {
	if c.vals != nil {
		c.vals = append(c.vals, v)
		if !v.IsValid() {
			c.nulls = bitSet(c.nulls, c.n)
			c.numNulls++
		}
		c.n++
		return
	}
	if v == (algebra.Value{}) {
		c.nulls = bitSet(c.nulls, c.n)
		c.numNulls++
		c.appendPlaceholder()
		c.n++
		return
	}
	if !v.IsValid() {
		// A non-canonical invalid value: only the generic representation
		// preserves it verbatim.
		c.demote()
		c.append(v)
		return
	}
	if c.kind == 0 {
		c.adoptKind(v.Kind)
	}
	if !sameStorageKind(c.kind, v.Kind) {
		c.demote()
		c.append(v)
		return
	}
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		c.ints = append(c.ints, v.Int)
	case algebra.TypeFloat:
		c.floats = append(c.floats, v.Float)
	case algebra.TypeString:
		c.strs = append(c.strs, v.Str)
	}
	c.n++
}

// sameStorageKind reports whether a value of kind v stores losslessly in a
// column of kind k. Int and date share an int64 payload but render and
// group differently, so they do not mix in one typed column.
func sameStorageKind(k, v algebra.Type) bool { return k == v }

// adoptKind fixes the column's kind after a kindless (all-null) prefix,
// backfilling zero placeholders for the nulls already recorded.
func (c *colvec) adoptKind(k algebra.Type) {
	c.kind = k
	switch k {
	case algebra.TypeInt, algebra.TypeDate:
		c.ints = make([]int64, c.n, c.n+1)
	case algebra.TypeFloat:
		c.floats = make([]float64, c.n, c.n+1)
	case algebra.TypeString:
		c.strs = make([]string, c.n, c.n+1)
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
		c.strs = append(c.strs, "")
	}
}

// demote rewrites the column into the generic representation.
func (c *colvec) demote() {
	if c.vals != nil {
		return
	}
	vals := make([]algebra.Value, c.n)
	for i := 0; i < c.n; i++ {
		vals[i] = c.valueAt(i)
	}
	c.vals = vals
	c.ints, c.floats, c.strs = nil, nil, nil
}

// valueAt reconstructs row i's value.
func (c *colvec) valueAt(i int) algebra.Value {
	if c.vals != nil {
		return c.vals[i]
	}
	if bitGet(c.nulls, i) {
		return algebra.Value{}
	}
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		return algebra.Value{Kind: c.kind, Int: c.ints[i]}
	case algebra.TypeFloat:
		return algebra.Value{Kind: algebra.TypeFloat, Float: c.floats[i]}
	case algebra.TypeString:
		return algebra.Value{Kind: algebra.TypeString, Str: c.strs[i]}
	default:
		return algebra.Value{}
	}
}

// clone returns an independent deep-enough copy: payload slices are
// copied, so appends to the clone never touch the original.
func (c *colvec) clone() *colvec {
	out := &colvec{kind: c.kind, numNulls: c.numNulls, n: c.n}
	if c.ints != nil {
		out.ints = append(make([]int64, 0, c.n), c.ints...)
	}
	if c.floats != nil {
		out.floats = append(make([]float64, 0, c.n), c.floats...)
	}
	if c.strs != nil {
		out.strs = append(make([]string, 0, c.n), c.strs...)
	}
	if c.vals != nil {
		out.vals = append(make([]algebra.Value, 0, c.n), c.vals...)
	}
	if c.nulls != nil {
		out.nulls = append(make([]uint64, 0, len(c.nulls)), c.nulls...)
	}
	return out
}

// appendCol appends every row of o to the (owned, cloned) receiver.
func (c *colvec) appendCol(o *colvec) {
	for i := 0; i < o.n; i++ {
		c.append(o.valueAt(i))
	}
}

// slice returns rows [lo, hi) as a column view. Typed payloads share
// backing arrays with the parent, capacity-capped so parent appends can
// never write into the view (the same discipline row slices had); the
// null bitmap, which cannot be sliced at a bit offset, is rebuilt.
func (c *colvec) slice(lo, hi int) *colvec {
	out := &colvec{kind: c.kind, n: hi - lo}
	if c.vals != nil {
		out.vals = c.vals[lo:hi:hi]
	}
	if c.ints != nil {
		out.ints = c.ints[lo:hi:hi]
	}
	if c.floats != nil {
		out.floats = c.floats[lo:hi:hi]
	}
	if c.strs != nil {
		out.strs = c.strs[lo:hi:hi]
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

// gather returns a fresh column holding the rows named by idx, in order.
func (c *colvec) gather(idx []int32) *colvec {
	out := &colvec{kind: c.kind, n: len(idx)}
	switch {
	case c.vals != nil:
		out.vals = make([]algebra.Value, len(idx))
		for o, i := range idx {
			out.vals[o] = c.vals[i]
			if !out.vals[o].IsValid() {
				out.nulls = bitSet(out.nulls, o)
				out.numNulls++
			}
		}
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
	case c.strs != nil:
		out.strs = make([]string, len(idx))
		for o, i := range idx {
			out.strs[o] = c.strs[i]
		}
	}
	if c.numNulls > 0 && c.vals == nil {
		for o, i := range idx {
			if bitGet(c.nulls, int(i)) {
				out.nulls = bitSet(out.nulls, o)
				out.numNulls++
			}
		}
	}
	return out
}
