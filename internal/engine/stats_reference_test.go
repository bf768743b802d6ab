package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
)

// The checkpoint kernels' cage. referenceRelationStats is the catalog entry
// as it was derived before the typed per-column pass, verbatim: every value boxed,
// NDV keyed on its rendering, min/max by Value.Compare. referenceFingerprint
// is the lineage digest as it stood in serve before it moved into the engine:
// every row rendered and joined with "|", the rows sorted, FNV-64a over the
// sorted sequence. Both are oracles only; nothing outside tests calls them.

func referenceRelationStats(name string, t *Table) *catalog.Relation {
	attrs := make(map[string]catalog.AttrStats, t.Schema.Len())
	for ci, col := range t.Schema.Columns {
		distinct := make(map[string]bool)
		var min, max algebra.Value
		var numericVals []float64
		numericCol := col.Type == algebra.TypeInt || col.Type == algebra.TypeFloat || col.Type == algebra.TypeDate
		cv := t.cols[ci]
		for ri := 0; ri < t.nrows; ri++ {
			v := cv.valueAt(ri)
			distinct[v.String()] = true
			if !min.IsValid() {
				min, max = v, v
			} else {
				if c, err := v.Compare(min); err == nil && c < 0 {
					min = v
				}
				if c, err := v.Compare(max); err == nil && c > 0 {
					max = v
				}
			}
			if numericCol {
				switch v.Kind {
				case algebra.TypeInt, algebra.TypeDate:
					numericVals = append(numericVals, float64(v.Int))
				case algebra.TypeFloat:
					numericVals = append(numericVals, v.Float)
				}
			}
		}
		attrs[col.Name] = catalog.AttrStats{
			DistinctValues: float64(len(distinct)),
			Min:            min,
			Max:            max,
			Histogram:      referenceEquiDepth(numericVals, HistogramBuckets),
		}
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

func referenceEquiDepth(vals []float64, buckets int) []float64 {
	if len(vals) < buckets || buckets < 1 {
		return nil
	}
	sort.Float64s(vals)
	out := make([]float64, buckets)
	for i := 1; i <= buckets; i++ {
		idx := i*len(vals)/buckets - 1
		out[i-1] = vals[idx]
	}
	return out
}

func referenceFingerprint(t *Table) uint64 {
	rows := make([]string, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		tup := t.Row(i)
		parts := make([]string, len(tup.Values))
		for j, v := range tup.Values {
			parts[j] = v.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// sameBits compares floats bit for bit: NaN equals itself, -0 is not +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func identicalValue(a, b algebra.Value) bool {
	return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str && sameBits(a.Float, b.Float)
}

// identicalRelation is reflect.DeepEqual with every float compared bit for
// bit — stricter than DeepEqual on ±0 and usable at all on NaN, which
// DeepEqual never finds equal to itself. A sidecar written from either
// entry is the same bytes.
func identicalRelation(a, b *catalog.Relation) bool {
	if a.Name != b.Name || a.Schema != b.Schema || !sameBits(a.Rows, b.Rows) || !sameBits(a.Blocks, b.Blocks) ||
		!sameBits(a.UpdateFrequency, b.UpdateFrequency) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for name, x := range a.Attrs {
		y, ok := b.Attrs[name]
		if !ok || !sameBits(x.DistinctValues, y.DistinctValues) || !identicalValue(x.Min, y.Min) || !identicalValue(x.Max, y.Max) ||
			(x.Histogram == nil) != (y.Histogram == nil) || len(x.Histogram) != len(y.Histogram) {
			return false
		}
		for i := range x.Histogram {
			if !sameBits(x.Histogram[i], y.Histogram[i]) {
				return false
			}
		}
	}
	return true
}

func requireReferenceStats(t *testing.T, label string, tb *Table) {
	t.Helper()
	want := referenceRelationStats(tb.Name, tb)
	if got := deriveStats(tb.Name, tb, new(StatsScratch)); !identicalRelation(got, want) {
		t.Fatalf("%s: statistics differ from the reference\n got: %+v\nwant: %+v", label, got.Attrs, want.Attrs)
	}
}

// oneColumn builds table T with a single column v of the declared type.
func oneColumn(t testing.TB, declared algebra.Type, vals []algebra.Value) *Table {
	t.Helper()
	tb := NewTable("T", algebra.NewSchema(algebra.Column{Relation: "T", Name: "v", Type: declared}), 4)
	for _, v := range vals {
		if err := tb.Insert([]algebra.Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// statsAlphabets are the value domains the cage draws columns from, one per
// branch the typed kernels take or refuse.
func statsAlphabets() []struct {
	name     string
	declared algebra.Type
	vals     []algebra.Value
} {
	iv, fv, sv, dv := algebra.IntVal, algebra.FloatVal, algebra.StringVal, algebra.DateVal
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	const p53 = int64(1) << 53
	type alphabet = struct {
		name     string
		declared algebra.Type
		vals     []algebra.Value
	}
	return []alphabet{
		{"ints", algebra.TypeInt, []algebra.Value{iv(-5), iv(0), iv(3), iv(3), iv(7), iv(12), iv(-1), iv(20)}},
		{"ints at ±2^53", algebra.TypeInt, []algebra.Value{iv(p53), iv(-p53), iv(p53 - 1), iv(-p53 + 2), iv(0)}},
		{"ints past 2^53", algebra.TypeInt, []algebra.Value{iv(p53 + 1), iv(p53), iv(p53 + 2), iv(-p53 - 1), iv(-p53), iv(math.MaxInt64), iv(math.MinInt64)}},
		{"floats", algebra.TypeFloat, []algebra.Value{fv(1.5), fv(-2), fv(1.5), fv(100), fv(0.25), fv(7)}},
		{"floats NaN first", algebra.TypeFloat, []algebra.Value{fv(nan), fv(3), fv(-1), fv(nan), fv(9)}},
		{"floats NaN later", algebra.TypeFloat, []algebra.Value{fv(3), fv(nan), fv(-1), fv(math.Float64frombits(0x7ff8000000000001)), fv(9)}},
		{"floats ±0", algebra.TypeFloat, []algebra.Value{fv(negZero), fv(0), fv(negZero), fv(1), fv(-1), fv(0)}},
		{"floats ±Inf", algebra.TypeFloat, []algebra.Value{fv(inf), fv(-inf), fv(0), fv(inf), fv(-3)}},
		{"dates", algebra.TypeDate, []algebra.Value{dv(9496), dv(9861), dv(9600), dv(9496), dv(0), dv(-1)}},
		{"dates far", algebra.TypeDate, []algebra.Value{dv(1 << 31), dv(-(1 << 31)), dv(1<<31 - 1), dv(2932896), dv(-719528)}},
		{"dates past the rendering", algebra.TypeDate, []algebra.Value{dv(1 << 40), dv(p53), dv(math.MaxInt64), dv(math.MinInt64), dv(5)}},
		{"strings", algebra.TypeString, []algebra.Value{sv("a"), sv("b|c"), sv(`"q"`), sv(""), sv(`x"|y`), sv("\xff"), sv("a")}},
		{"all null", algebra.TypeInt, nil},
	}
}

// statsColumn draws n values from vals under a null pattern.
func statsColumn(r *rand.Rand, vals []algebra.Value, n int, nulls string) []algebra.Value {
	out := make([]algebra.Value, n)
	for i := range out {
		if len(vals) > 0 {
			out[i] = vals[r.Intn(len(vals))]
		}
		switch {
		case nulls == "leading" && i < 3, nulls == "trailing" && i >= n-3, nulls == "interleaved" && i%4 == 1:
			out[i] = algebra.Value{}
		}
	}
	// The column's first value decides NaN-first and the like; keep the
	// alphabet's own first value first where no null pattern claims it.
	if n > 0 && len(vals) > 0 && nulls != "leading" {
		out[0] = vals[0]
	}
	return out
}

func TestRelationStatsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, a := range statsAlphabets() {
		for _, nulls := range []string{"none", "leading", "trailing", "interleaved"} {
			for _, n := range []int{0, 1, 3, 9, 10, 11, 64} {
				label := fmt.Sprintf("%s, %s nulls, %d rows", a.name, nulls, n)
				requireReferenceStats(t, label, oneColumn(t, a.declared, statsColumn(r, a.vals, n, nulls)))
			}
		}
	}
	// Every shape side by side in one table: one entry per column.
	alphabets := statsAlphabets()
	cols := make([]algebra.Column, len(alphabets))
	for i, a := range alphabets {
		cols[i] = algebra.Column{Relation: "W", Name: fmt.Sprintf("c%02d", i), Type: a.declared}
	}
	wide := NewTable("W", algebra.NewSchema(cols...), 10)
	const n = 97
	colVals := make([][]algebra.Value, len(alphabets))
	for i, a := range alphabets {
		colVals[i] = statsColumn(r, a.vals, n, "interleaved")
	}
	for ri := 0; ri < n; ri++ {
		row := make([]algebra.Value, len(alphabets))
		for ci := range row {
			row[ci] = colVals[ci][ri]
		}
		if err := wide.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	requireReferenceStats(t, "every shape in one table", wide)
	// Slices and gathers keep a column's kind even when every row they keep
	// is null.
	ints := oneColumn(t, algebra.TypeInt, []algebra.Value{{}, {}, algebra.IntVal(4), {}})
	requireReferenceStats(t, "an all-null slice of a typed column", ints.Slice(0, 2))
	requireReferenceStats(t, "an all-null gather of a typed column", ints.gatherTable(ints.Schema, 4, []int32{3, 0}))
	// A string column's entry reads only the dictionary entries its non-null
	// rows use. A slice or a gather shares a dictionary that holds strings
	// it does not keep, below and above the ones it does; "" is a null's
	// placeholder and a value too, or the placeholder alone.
	sv := algebra.StringVal
	strs := oneColumn(t, algebra.TypeString, []algebra.Value{sv("m"), sv("a"), {}, sv("k"), sv("z"), sv("k"), {}, sv("")})
	requireReferenceStats(t, "a slice sharing a wider dictionary", strs.Slice(3, 6))
	requireReferenceStats(t, "a gather sharing a wider dictionary", strs.gatherTable(strs.Schema, 4, []int32{5, 0, 3, 6}))
	requireReferenceStats(t, "an all-null slice of a string column", strs.Slice(2, 3))
	requireReferenceStats(t, "an all-null gather of a string column", strs.gatherTable(strs.Schema, 4, []int32{6, 2}))
	requireReferenceStats(t, `"" as a null's placeholder and a value`, strs)
	requireReferenceStats(t, `"" as a null's placeholder and a value, gathered`, strs.gatherTable(strs.Schema, 4, []int32{7, 2}))
	requireReferenceStats(t, `"" as a null's placeholder alone`, oneColumn(t, algebra.TypeString, []algebra.Value{{}, sv("b"), {}}))
}

// fuzzStatsColumn decodes a column, 9 bytes per row like fuzzRows, and the
// kind it is declared: mode%5 picks the kind every non-null row takes (0
// and 1 both int); a selector divisible by 7 is a null; a selector with the
// high bit set narrows the payload to a signed byte, so runs, ties and
// duplicates are common, and the next bit to a signed 32-bit word, whose
// values spread too wide to count.
func fuzzStatsColumn(data []byte, mode uint8) (algebra.Type, []algebra.Value) {
	class := max(mode%5, 1)
	var out []algebra.Value
	for len(data) >= 9 && len(out) < 64 {
		sel, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
		str := string(data[1 : 1+int(sel%4)])
		data = data[9:]
		f := math.Float64frombits(bits)
		switch {
		case sel&0x80 != 0:
			bits = uint64(int64(int8(bits)))
			f = float64(int64(bits)) / 2
		case sel&0x40 != 0:
			bits = uint64(int64(int32(bits)))
		}
		kind := class
		if sel%7 == 0 {
			kind = 0
		}
		out = append(out, fuzzValue(kind, int64(bits), f, str))
	}
	return fuzzValue(class, 0, 0, "").Kind, out
}

// lineageTables builds, from one column's values and a split point, the
// tables a maintained relation passes through: parent holds vals[:split] and
// is itself a successor (of an empty table), as every table an epoch
// publishes is; succ is its first successor, which appends vals[split:] in
// place and so continues its lineage; second is a later successor of the
// same parent with another Δ (vals reversed), which finds the room taken.
func lineageTables(t testing.TB, declared algebra.Type, vals []algebra.Value, split int) (parent, succ, second *Table) {
	t.Helper()
	empty := oneColumn(t, declared, nil)
	parent = empty.cloneAppendTable(oneColumn(t, declared, vals[:split]))
	succ = parent.cloneAppendTable(oneColumn(t, declared, vals[split:]))
	rev := slices.Clone(vals)
	slices.Reverse(rev)
	second = parent.cloneAppendTable(oneColumn(t, declared, rev))
	return parent, succ, second
}

// FuzzRelationStats drives TestRelationStatsMatchesReference's comparison
// from fuzzed columns and a gather of every other row of each, which shares
// its dictionary, and then along a lineage: the column split into a parent
// and its Δ, the parent's first successor (which extends the parent's
// dictionary in place) and a second successor of the same parent (which
// codes its rows against a dictionary of its own), their entries asked in
// the order the fuzzer picks — the older table last included. Every entry
// equals the reference's.
func FuzzRelationStats(f *testing.F) {
	enc := encodeFuzzRow
	cat := func(rows ...[]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	p53 := int64(1) << 53
	f.Add(cat(enc(0x81, 3), enc(0x81, 1), enc(0, 0), enc(0x81, 3)), uint8(1), uint8(2), uint8(0))
	f.Add(cat(enc(1, uint64(p53)), enc(1, uint64(p53+1)), enc(1, uint64(-p53)), enc(1, uint64(-p53-1)), enc(1, 5)), uint8(1), uint8(1), uint8(1))
	f.Add(cat(enc(2, math.Float64bits(math.NaN())), enc(2, 0), enc(2, math.Float64bits(math.Copysign(0, -1)))), uint8(2), uint8(1), uint8(2))
	f.Add(cat(enc(2, math.Float64bits(math.Inf(-1))), enc(2, math.Float64bits(math.NaN())), enc(2, 7)), uint8(2), uint8(2), uint8(3))
	f.Add(cat(enc(3, 0x7c22), enc(3, 0x22), enc(7, 0)), uint8(3), uint8(1), uint8(4))
	f.Add(cat(enc(4, 9496), enc(4, 9861), enc(0x84, 5), enc(4, 1<<40)), uint8(4), uint8(3), uint8(5))
	f.Add(cat(enc(1, 1), enc(2, math.Float64bits(1)), enc(0, 0), enc(5, 9)), uint8(0), uint8(2), uint8(0))
	// Strings along a lineage: empty strings (selector ≡ 0 mod 4) beside
	// one-byte ones, the separator and a quote; nulls only in the Δ; an
	// all-null parent (selectors divisible by 7); a Δ that brings no new
	// value; and a Δ below the parent's minimum and above its maximum.
	f.Add(cat(enc(4, 0x61), enc(5, 0x7c), enc(6, 0x2261), enc(0x0e, 0), enc(8, 0x61)), uint8(3), uint8(3), uint8(1))
	f.Add(cat(enc(5, 0x62), enc(9, 0x63), enc(7, 0), enc(0x0e, 0), enc(5, 0x62)), uint8(3), uint8(2), uint8(3))
	f.Add(cat(enc(7, 0), enc(0x0e, 0), enc(5, 0x7c), enc(4, 0)), uint8(3), uint8(2), uint8(4))
	f.Add(cat(enc(5, 0x6d), enc(10, 0x6d6d), enc(5, 0x6d), enc(10, 0x6d6d)), uint8(3), uint8(2), uint8(5))
	f.Add(cat(enc(5, 0x6d), enc(5, 0x70), enc(5, 0x21), enc(5, 0x7e)), uint8(3), uint8(2), uint8(0))
	// Sixteen distinct two-byte strings and a Δ with a seventeenth, which
	// the successor adds past the dictionary its parent reads.
	var many []byte
	for i := uint64(1); i <= 17; i++ {
		many = append(many, enc(2, 0x6100+i)...)
	}
	f.Add(many, uint8(3), uint8(16), uint8(2))
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	f.Fuzz(func(t *testing.T, data []byte, mode, split, order uint8) {
		declared, vals := fuzzStatsColumn(data, mode)
		tb := oneColumn(t, declared, vals)
		requireReferenceStats(t, "fuzzed column", tb)
		var every []int32
		for i := 0; i < len(vals); i += 2 {
			every = append(every, int32(i))
		}
		requireReferenceStats(t, "every other row of the fuzzed column, gathered", tb.gatherTable(tb.Schema, 4, every))
		parent, succ, second := lineageTables(t, declared, vals, int(split)%(len(vals)+1))
		tables := [3]*Table{parent, succ, second}
		labels := [3]string{"parent", "first successor", "second successor"}
		for _, i := range orders[int(order)%len(orders)] {
			want := referenceRelationStats("T", tables[i])
			if got := TableStats("T", tables[i]); !identicalRelation(got, want) {
				t.Fatalf("%s (%d of %d rows): statistics differ from the reference\n got: %+v\nwant: %+v",
					labels[i], parent.NumRows(), tables[i].NumRows(), got.Attrs, want.Attrs)
			}
		}
	})
}

// BenchmarkIntStatsSpan times intStats' two paths on one int column of
// uniform values, at spans from a quarter to 32 slots per value either side
// of the 4-per-value bound where intStats switches from counting to sorting.
func BenchmarkIntStatsSpan(b *testing.B) {
	for _, n := range []int{2000, 50000} {
		for _, perValue := range []float64{0.25, 1, 4, 8, 32} {
			span := int64(float64(n) * perValue)
			r := rand.New(rand.NewSource(1))
			c := &colvec{}
			for i := 0; i < n; i++ {
				c.append(algebra.IntVal(r.Int63n(span + 1)))
			}
			b.Run(fmt.Sprintf("n=%d/span=%gn/counted", n, perValue), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.countedInts(0, span, n, true, new(StatsScratch))
				}
			})
			b.Run(fmt.Sprintf("n=%d/span=%gn/sorted", n, perValue), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.sortedInts(n, true)
				}
			})
		}
	}
}

// fingerprintTables are tables the row-multiset digest must tell apart or
// not: permutations, duplicated rows, ints beside whole floats (both render
// "1"), NaN payloads, ±0, strings holding the separator, and an int column
// where the others hold strings. Each table declares its columns' types by
// the kinds of its values.
func fingerprintTables(t testing.TB) map[string]*Table {
	iv, fv, sv, dv := algebra.IntVal, algebra.FloatVal, algebra.StringVal, algebra.DateVal
	null := algebra.Value{}
	base := [][]algebra.Value{{iv(1), sv("a")}, {iv(2), sv("b|c")}, {iv(3), sv(`"q"`)}, {iv(2), sv("b|c")}}
	with := func(rows [][]algebra.Value, i int, row ...algebra.Value) [][]algebra.Value {
		out := append([][]algebra.Value(nil), rows...)
		out[i] = row
		return out
	}
	// as rewrites column a of every row into another kind, the same number.
	as := func(rows [][]algebra.Value, kind func(int64) algebra.Value) [][]algebra.Value {
		out := make([][]algebra.Value, len(rows))
		for i, row := range rows {
			out[i] = []algebra.Value{kind(row[0].Int), row[1]}
		}
		return out
	}
	floats := as(base, func(i int64) algebra.Value { return fv(float64(i)) })
	reverse := func(rows [][]algebra.Value) [][]algebra.Value {
		out := make([][]algebra.Value, len(rows))
		for i, row := range rows {
			out[len(rows)-1-i] = row
		}
		return out
	}
	cases := map[string][][]algebra.Value{
		"base":                base,
		"reversed":            reverse(base),
		"rotated":             append(append([][]algebra.Value(nil), base[1:]...), base[0]),
		"a row duplicated":    append(append([][]algebra.Value(nil), base...), base[0]),
		"a duplicate dropped": base[:3],
		"duplicate swapped":   with(base, 3, iv(1), sv("a")),
		"floats for ints":     floats,
		"Float 1.5":           with(floats, 0, fv(1.5), sv("a")),
		"dates for ints":      as(base, dv),
		"null a":              with(base, 0, null, sv("a")),
		"null a, floats":      with(floats, 0, null, sv("a")),
		"null b":              with(base, 0, iv(1), null),
		"separator moved":     with(base, 1, iv(2), sv("b")),
		"NaN":                 with(floats, 0, fv(math.NaN()), sv("a")),
		"NaN payload":         with(floats, 0, fv(math.Float64frombits(0x7ff8000000000001)), sv("a")),
		"+0":                  with(floats, 0, fv(0), sv("a")),
		"-0":                  with(floats, 0, fv(math.Copysign(0, -1)), sv("a")),
		"ints for b":          [][]algebra.Value{{iv(1), iv(7)}, {iv(3), iv(7)}},
		"ints for b reversed": [][]algebra.Value{{iv(3), iv(7)}, {iv(1), iv(7)}},
		"empty":               nil,
	}
	out := make(map[string]*Table, len(cases))
	for name, rows := range cases {
		types := []algebra.Type{algebra.TypeInt, algebra.TypeString}
		for _, row := range rows {
			for ci, v := range row {
				if v.IsValid() {
					types[ci] = v.Kind
				}
			}
		}
		schema := algebra.NewSchema(
			algebra.Column{Relation: "F", Name: "a", Type: types[0]},
			algebra.Column{Relation: "F", Name: "b", Type: types[1]})
		tb := NewTable("F", schema, 2)
		if err := tb.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		out[name] = tb
	}
	// A wider random table and a shuffle of it.
	r := rand.New(rand.NewSource(5))
	var rows [][]algebra.Value
	for i := 0; i < 200; i++ {
		rows = append(rows, []algebra.Value{iv(int64(r.Intn(20))), sv(fmt.Sprintf("s%d|", r.Intn(9)))})
	}
	for _, name := range []string{"random", "random shuffled"} {
		tb := NewTable("F", out["base"].Schema, 10)
		if err := tb.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		out[name] = tb
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return out
}

// renderedMultiset is a table's rows as the oracle renders them, sorted.
func renderedMultiset(tb *Table) string {
	rows := make([]string, tb.NumRows())
	for i := range rows {
		rows[i] = tb.Row(i).String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestTableFingerprintIsRowMultiset(t *testing.T) {
	tables := fingerprintTables(t)
	for an, a := range tables {
		for bn, b := range tables {
			oracleEq := referenceFingerprint(a) == referenceFingerprint(b)
			if multisetEq := renderedMultiset(a) == renderedMultiset(b); oracleEq != multisetEq {
				t.Errorf("%s vs %s: oracle digests equal=%v, rendered row multisets equal=%v", an, bn, oracleEq, multisetEq)
			}
			if eq := a.Fingerprint() == b.Fingerprint(); eq != oracleEq {
				t.Errorf("%s vs %s: Fingerprints equal=%v (%016x, %016x), oracle digests equal=%v",
					an, bn, eq, a.Fingerprint(), b.Fingerprint(), oracleEq)
			}
		}
	}
	for _, pair := range [][2]string{{"base", "reversed"}, {"base", "floats for ints"}, {"null a", "null a, floats"}, {"NaN", "NaN payload"}, {"random", "random shuffled"}} {
		if referenceFingerprint(tables[pair[0]]) != referenceFingerprint(tables[pair[1]]) {
			t.Errorf("%s and %s render the same rows but digest differently", pair[0], pair[1])
		}
	}
}
