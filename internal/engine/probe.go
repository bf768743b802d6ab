package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// The probe: how a join delta's leg evaluates the full side it pairs the Δ
// against without building it. σ_{k ∈ keys(Δ)}(R) is pushed down R's
// select-project-join plan to the scan that owns column k — one typed pass
// over one column of the stored or grown table — and on the way back up each
// join hands its surviving rows' join keys sideways into its other input, so
// that input is probed too. The nested loop then joins two Δ-sized tables.

// keySet is the join keys a probe keeps: float64 images for numeric keys,
// with their range, or strings.
type keySet struct {
	nums   map[float64]struct{}
	lo, hi float64
	strs   map[string]struct{}
}

// keysOf collects the keys of column c over its n rows, or returns nil when
// matching on them is not plain equality: only an equalityIndexable column
// (typed numeric, no null, no NaN — the nested loop then matches on exact
// float64-image equality) or a typed null-free string column qualifies.
func keysOf(c *colvec, n int) *keySet {
	switch {
	case n == 0:
		return nil
	case equalityIndexable(c):
		ks := &keySet{nums: make(map[float64]struct{}, n), lo: c.numAt(0), hi: c.numAt(0)}
		for i := 0; i < n; i++ {
			k := c.numAt(i)
			ks.nums[k] = struct{}{}
			ks.lo, ks.hi = min(ks.lo, k), max(ks.hi, k)
		}
		return ks
	case stringCol(c):
		ks := &keySet{strs: make(map[string]struct{}, n)}
		for i := 0; i < n; i++ {
			ks.strs[c.strAt(i)] = struct{}{}
		}
		return ks
	}
	return nil
}

// exactOn reports whether probing column c with the set keeps exactly the
// rows the nested loop can match: c is of the set's class and, like the
// set's own column, free of nulls and NaN.
func (ks *keySet) exactOn(c *colvec) bool {
	if ks.nums != nil {
		return equalityIndexable(c)
	}
	return stringCol(c)
}

// probeFilter asks an operand for the rows whose column col holds a key.
type probeFilter struct {
	col  algebra.ColumnRef
	keys *keySet
}

// probeBy returns the filter that t, one input of j (the left when isLeft),
// puts on the other: the first condition whose column in t passes the
// exactness gate, keyed by t's values there. Nil when no condition does —
// the other input is then evaluated whole.
func probeBy(j *algebra.Join, t *Table, isLeft bool) *probeFilter {
	for _, c := range j.On {
		mine, other := c.Left, c.Right
		if !isLeft {
			mine, other = other, mine
		}
		ci, err := t.Schema.Resolve(mine)
		if err != nil {
			continue
		}
		if ks := keysOf(t.cols[ci], t.nrows); ks != nil {
			return &probeFilter{col: other, keys: ks}
		}
	}
	return nil
}

// operand evaluates the select-project-join expression n in state st,
// unmetered: whole when f is nil, otherwise at least every row whose column
// f.col holds one of f.keys — a filter a scan cannot apply exactly is
// dropped there, and that input is evaluated whole. One evaluator serves
// both: the whole relation is the probe with no filter. Nil stands for a
// relation found empty below a join, whose other input is then not evaluated.
func (ep *MaintenanceEpoch) operand(n algebra.Node, st relState, f *probeFilter) (*Table, error) {
	db := ep.db
	switch v := n.(type) {
	case *algebra.Scan:
		t, err := ep.stateTable(v.Relation, st)
		if err != nil || f == nil {
			return t, err
		}
		ci, err := t.Schema.Resolve(f.col)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if !f.keys.exactOn(t.cols[ci]) {
			return t, nil
		}
		return db.ops.probe(db, t, ci, f.keys), nil
	case *algebra.Select:
		in, err := ep.operand(v.Input, st, f)
		if in == nil {
			return nil, err
		}
		return db.denseSel(v, in, nil)
	case *algebra.Project:
		in, err := ep.operand(v.Input, st, f)
		if in == nil {
			return nil, err
		}
		return db.ops.project(db, v, in, nil)
	case *algebra.Join:
		// The input the filter reaches first; the other is probed by what
		// survives of it.
		leftFirst := true
		if f != nil {
			_, err := v.Left.Schema().Resolve(f.col)
			leftFirst = err == nil
		}
		first, second := v.Left, v.Right
		if !leftFirst {
			first, second = second, first
		}
		a, err := ep.operand(first, st, f)
		if a == nil || a.NumRows() == 0 {
			return nil, err
		}
		b, err := ep.operand(second, st, probeBy(v, a, leftFirst))
		if b == nil || b.NumRows() == 0 {
			return nil, err
		}
		if !leftFirst {
			a, b = b, a
		}
		return db.opJoin(v, a, b, nil)
	default:
		return nil, fmt.Errorf("engine: cannot propagate deltas through node type %T", n)
	}
}

// stateTable is a stored relation in state st: the published rows, or for a
// dirty base table in the new state its grown table.
func (ep *MaintenanceEpoch) stateTable(name string, st relState) (*Table, error) {
	if st == newState && ep.frozen[name] != nil {
		return ep.grownTable(name), nil
	}
	return ep.base.relation(name)
}

// batchProbe keeps the rows of in whose column col holds a key of ks, in row
// order: one typed pass over the column, a range check before each lookup,
// then one gather per column. The caller has checked ks.exactOn(col).
func (db *DB) batchProbe(in *Table, col int, ks *keySet) *Table {
	c := in.cols[col]
	var lanes []int32
	keep := func(i int, k float64) {
		if k >= ks.lo && k <= ks.hi {
			if _, ok := ks.nums[k]; ok {
				lanes = append(lanes, int32(i))
			}
		}
	}
	switch {
	case ks.strs != nil:
		for i := 0; i < in.nrows; i++ {
			if _, ok := ks.strs[c.strAt(i)]; ok {
				lanes = append(lanes, int32(i))
			}
		}
	case c.kind == algebra.TypeFloat:
		for i, k := range c.floats[:in.nrows] {
			keep(i, k)
		}
	default:
		for i, k := range c.ints[:in.nrows] {
			keep(i, float64(k))
		}
	}
	return in.gatherTable(in.Schema, in.BlockRows, lanes)
}
