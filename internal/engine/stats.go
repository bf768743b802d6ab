package engine

import (
	"math"
	"slices"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
)

// The checkpoint kernels: a table's catalog entry (what a snapshot persists
// as its statistics sidecar and the cost model prices plans from) and its
// row-multiset digest (what lineage stamps on a view's persisted contents).
// The entry is one typed pass per column over the payloads, not a string
// per value — a string column's over its dictionary codes — and the digest
// renders each row once into one reused buffer and is carried from table to
// successor. Both are cached on the immutable published table.

// StatsScratch is the working memory of deriving catalog entries: the slots
// intStats counts a column's ints into, one per value of its span, and
// stringStats a string column's codes, one per dictionary entry. A caller
// that derives entries again and again keeps one, so that the slots are
// allocated once, at the widest span or dictionary, rather than per column: a
// snapshot store keeps one across its checkpoints, a catalog one across its
// relations. Allocated per column, the slots were most of the bytes a steady
// checkpoint's statistics allocate, in proportion to the tables
// (TestCheckpointStatsAllocBudget). The zero value is ready to use; a scratch
// is not safe for concurrent use.
type StatsScratch struct{ slots []int32 }

// counts returns n zeroed slots, the scratch's, grown when they are fewer.
func (s *StatsScratch) counts(n int) []int32 {
	counts := slices.Grow(s.slots[:0], n)[:n]
	clear(counts)
	s.slots = counts
	return counts
}

// deriveStats computes the table's entry, one column at a time.
func deriveStats(name string, t *Table, scratch *StatsScratch) *catalog.Relation {
	attrs := make(map[string]catalog.AttrStats, t.Schema.Len())
	for ci, col := range t.Schema.Columns {
		numeric := col.Type == algebra.TypeInt || col.Type == algebra.TypeFloat || col.Type == algebra.TypeDate
		attrs[col.Name] = t.cols[ci].stats(numeric, scratch)
	}
	return &catalog.Relation{
		Name:            name,
		Schema:          t.Schema,
		Rows:            float64(t.NumRows()),
		Blocks:          float64(t.NumBlocks()),
		UpdateFrequency: 1,
		Attrs:           attrs,
	}
}

// Past these bounds the typed pass would disagree with the per-value one:
// ints beyond ±2^53 share float64 images, which Value.Compare ties (the
// first row wins), and a date renders through its day count × 86 400
// seconds, which beyond ±2^31 days leaves the range where distinct days
// render distinctly. A column holding such a value takes the per-value pass.
const (
	exactIntBound  = 1 << 53
	exactDateBound = 1 << 31
)

// stats derives the catalog entry of a column in one typed pass over its
// payload. The entry is valueStats', bit for bit: NDV counts distinct renderings,
// NULL's "<invalid>" among them; Min and Max start at the first non-null
// value and move only to one that compares strictly lower or higher, so a
// leading NaN pins both and ties keep the earlier row; a numeric attribute's
// histogram covers its non-null values.
func (c *colvec) stats(numeric bool, scratch *StatsScratch) catalog.AttrStats {
	switch c.kind {
	case algebra.TypeInt, algebra.TypeDate:
		if st, ok := c.intStats(numeric, scratch); ok {
			return st
		}
	case algebra.TypeFloat:
		return c.floatStats(numeric)
	case algebra.TypeString:
		return c.stringStats(scratch)
	}
	return c.valueStats(numeric)
}

// distinct adds NULL, when the column has one, to k distinct non-null
// values.
func (c *colvec) distinct(k int) float64 {
	if c.numNulls > 0 {
		k++
	}
	return float64(k)
}

// nonNull reports whether row i holds a value.
func (c *colvec) nonNull(i int) bool { return c.numNulls == 0 || !bitGet(c.nulls, i) }

// intStats reads NDV and the histogram bounds off a sorted copy of the
// non-null values, or — when they span fewer than four slots per value — off
// per-value counts, which are the same sorted sequence run-length encoded.
// Counting is several times faster than sorting at every span up to 8 per
// value (BenchmarkIntStatsSpan) and holds every int row of the mixed_fresh
// warehouse bar a few hundred, so it is most of what a checkpoint's
// statistics cost (EXPERIMENTS "Checkpoint kernels"); the bound keeps its
// int32 slots within twice the sorted copy's memory. Min and Max are the
// ends. ok is false when a value lies past the kind's exact bound.
func (c *colvec) intStats(numeric bool, scratch *StatsScratch) (st catalog.AttrStats, ok bool) {
	n := c.n - c.numNulls
	if n == 0 {
		return catalog.AttrStats{DistinctValues: c.distinct(0)}, true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, x := range c.ints {
		if c.nonNull(i) {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	bound := int64(exactIntBound)
	if c.kind == algebra.TypeDate {
		bound = exactDateBound
	}
	if lo < -bound || hi > bound {
		return st, false
	}
	var ndv int
	if span := hi - lo; span < 4*int64(n) {
		ndv, st.Histogram = c.countedInts(lo, span, n, numeric, scratch)
	} else {
		ndv, st.Histogram = c.sortedInts(n, numeric)
	}
	st.DistinctValues = c.distinct(ndv)
	st.Min, st.Max = algebra.Value{Kind: c.kind, Int: lo}, algebra.Value{Kind: c.kind, Int: hi}
	return st, true
}

// countedInts counts the n non-null values into span+1 slots from lo and
// walks the counts once: a slot in use is a distinct value, and the slot
// holding sorted position i·n/buckets − 1 is histogram bound i. The slots are
// the scratch's, grown to the span when they are fewer.
func (c *colvec) countedInts(lo, span int64, n int, numeric bool, scratch *StatsScratch) (ndv int, hist []float64) {
	counts := scratch.counts(int(span + 1))
	if c.numNulls == 0 {
		for _, x := range c.ints {
			counts[x-lo]++
		}
	} else {
		for i, x := range c.ints {
			if !bitGet(c.nulls, i) {
				counts[x-lo]++
			}
		}
	}
	if numeric && n >= HistogramBuckets {
		hist = make([]float64, 0, HistogramBuckets)
	}
	seen := 0
	for v, k := range counts {
		if k == 0 {
			continue
		}
		ndv++
		seen += int(k)
		for hist != nil && len(hist) < HistogramBuckets && (len(hist)+1)*n/HistogramBuckets-1 < seen {
			hist = append(hist, float64(lo+int64(v)))
		}
	}
	return ndv, hist
}

// sortedInts sorts a copy of the n non-null values: NDV is its number of
// runs, the histogram bounds read off it.
func (c *colvec) sortedInts(n int, numeric bool) (ndv int, hist []float64) {
	vals := nonNullOf(c, c.ints)
	slices.Sort(vals)
	ndv = 1
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			ndv++
		}
	}
	if numeric {
		hist = equiDepth(vals, HistogramBuckets)
	}
	return ndv, hist
}

// floatStats keys NDV on the bits, every NaN on one key (they all render
// "NaN"; -0 and +0 render apart). Min and Max start at the first non-null
// value and move only to a strictly lower or higher one. The histogram sorts
// the values in row order exactly as the per-value pass does, so
// equal-comparing ±0 land in the same slots.
func (c *colvec) floatStats(numeric bool) catalog.AttrStats {
	nan := math.Float64bits(math.NaN())
	distinct := make(map[uint64]struct{})
	var st catalog.AttrStats
	for i, f := range c.floats {
		if !c.nonNull(i) {
			continue
		}
		key := math.Float64bits(f)
		if f != f {
			key = nan
		}
		distinct[key] = struct{}{}
		switch {
		case !st.Min.IsValid():
			st.Min, st.Max = algebra.FloatVal(f), algebra.FloatVal(f)
		case f < st.Min.Float:
			st.Min = algebra.FloatVal(f)
		case f > st.Max.Float:
			st.Max = algebra.FloatVal(f)
		}
	}
	st.DistinctValues = c.distinct(len(distinct))
	if numeric {
		vals := nonNullOf(c, c.floats)
		sort.Float64s(vals)
		st.Histogram = equiDepth(vals, HistogramBuckets)
	}
	return st
}

// stringStats reads a string column's entry off its codes: each non-null
// row marks its code's slot, and the slots in use are the column's distinct
// strings — exactly, because a dictionary holds no string twice
// (TestDictionaryHoldsNoStringTwice). Entries no row uses (a null's
// placeholder, the rest of a dictionary a gather or a slice shares) stay
// unmarked. NDV is the slots in use (quoting is one-to-one), Min and Max
// the least and the greatest of their strings — strings compare totally, so
// the first-row tie rule keeps an equal string. A string has no float image,
// so there is no histogram even under a numeric declared type. As in
// countedInts, a column without nulls marks its codes in a loop without the
// null test; one loop testing every row was ≈ 20 % slower at scale 0.2.
func (c *colvec) stringStats(scratch *StatsScratch) catalog.AttrStats {
	used := scratch.counts(len(c.dict))
	if c.numNulls == 0 {
		for _, code := range c.codes {
			used[code] = 1
		}
	} else {
		for i, code := range c.codes {
			if !bitGet(c.nulls, i) {
				used[code] = 1
			}
		}
	}
	ndv, lo, hi := 0, "", ""
	for code, u := range used {
		if u == 0 {
			continue
		}
		if s := c.dict[code]; ndv == 0 {
			lo, hi = s, s
		} else {
			lo, hi = min(lo, s), max(hi, s)
		}
		ndv++
	}
	st := catalog.AttrStats{DistinctValues: c.distinct(ndv)}
	if ndv > 0 {
		st.Min, st.Max = algebra.StringVal(lo), algebra.StringVal(hi)
	}
	return st
}

// nonNullOf copies the payload's non-null values.
func nonNullOf[T any](c *colvec, payload []T) []T {
	out := make([]T, 0, c.n-c.numNulls)
	for i, x := range payload {
		if c.nonNull(i) {
			out = append(out, x)
		}
	}
	return out
}

// valueStats is the per-value pass that defines the entry, for a column of
// nulls and for values past the exact bounds: every value boxed, NDV keyed
// on its rendering, Min and Max by Value.Compare.
func (c *colvec) valueStats(numeric bool) catalog.AttrStats {
	distinct := make(map[string]bool)
	var min, max algebra.Value
	var vals []float64
	for i := 0; i < c.n; i++ {
		v := c.valueAt(i)
		distinct[v.String()] = true
		if !min.IsValid() {
			min, max = v, v
		} else {
			if cmp, err := v.Compare(min); err == nil && cmp < 0 {
				min = v
			}
			if cmp, err := v.Compare(max); err == nil && cmp > 0 {
				max = v
			}
		}
		if numeric {
			switch v.Kind {
			case algebra.TypeInt, algebra.TypeDate:
				vals = append(vals, float64(v.Int))
			case algebra.TypeFloat:
				vals = append(vals, v.Float)
			}
		}
	}
	sort.Float64s(vals)
	return catalog.AttrStats{
		DistinctValues: float64(len(distinct)),
		Min:            min,
		Max:            max,
		Histogram:      equiDepth(vals, HistogramBuckets),
	}
}

// equiDepth returns the upper bounds of equi-depth buckets over ascending
// values (nil when there are fewer values than buckets).
func equiDepth[T int64 | float64](sorted []T, buckets int) []float64 {
	if len(sorted) < buckets || buckets < 1 {
		return nil
	}
	out := make([]float64, buckets)
	for i := 1; i <= buckets; i++ {
		out[i-1] = float64(sorted[i*len(sorted)/buckets-1])
	}
	return out
}

// tableDigest is a computed Fingerprint and the row count it covers.
type tableDigest struct {
	rows int
	sum  uint64
}

// Fingerprint digests the table's contents as a multiset of rows: the sum,
// mod 2^64, of FNV-64a over each row rendered as its values' String forms
// joined with "|". Physical order does not enter, so a view restored from a
// segment, recomputed from base, or grown by appends digests the same
// whenever it holds the same rows. Computed on first use and cached like
// the statistics (the row-count guard covers setup-phase Insert); a table
// cloneAppendTable builds from a digested one inherits the digest plus its
// appended rows', so a maintained view stays digested at O(Δ) per epoch.
func (t *Table) Fingerprint() uint64 {
	if d := t.digest.Load(); d != nil && d.rows == t.nrows {
		return d.sum
	}
	sum := t.rowsDigest()
	t.digest.Store(&tableDigest{rows: t.nrows, sum: sum})
	return sum
}

// rowsDigest is Fingerprint's sum, computed: each row rendered into one
// reused buffer and hashed there.
func (t *Table) rowsDigest() uint64 {
	var sum uint64
	var buf []byte
	for i := 0; i < t.nrows; i++ {
		buf = buf[:0]
		for ci, c := range t.cols {
			if ci > 0 {
				buf = append(buf, '|')
			}
			buf = c.valueAt(i).Append(buf)
		}
		h := uint64(14695981039346656037) // FNV-64a offset basis
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211 // FNV-64 prime
		}
		sum += h
	}
	return sum
}
