package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// This file holds the vectorized select/project operators and the
// lane-masked predicate kernels they run on. The batch executor is the
// only one a binary links; its contract, enforced by the differential
// harness, is bit-identical behavior with the row reference executor in
// rowexec_test.go — same output rows in the same order, same
// per-operator stats, and the same error for the same plan. Errors are the
// subtle part: the row engine evaluates rows in order and stops at the
// first row that fails, with AND/OR short-circuiting within the row. The
// kernels reproduce that by evaluating conjuncts column-at-a-time over an
// active-lane mask and recording the first error per lane; the operator
// then fails with the error of the lowest-indexed failed lane, which is
// exactly the error the row loop would have hit first.

// laneErrs records at most one (the first) evaluation error per row lane.
type laneErrs struct {
	errs map[int]error
}

func (e *laneErrs) set(i int, err error) {
	if e.errs == nil {
		e.errs = make(map[int]error)
	}
	if _, dup := e.errs[i]; !dup {
		e.errs[i] = err
	}
}

func (e *laneErrs) has(i int) bool {
	_, ok := e.errs[i]
	return ok
}

// first returns the error of the lowest-indexed failed lane — the error
// the row-at-a-time loop would have returned.
func (e *laneErrs) first() error {
	if len(e.errs) == 0 {
		return nil
	}
	min := -1
	for i := range e.errs {
		if min < 0 || i < min {
			min = i
		}
	}
	return e.errs[min]
}

// batchSelect filters by a vectorized predicate pass producing a keep
// mask, then compacts every column once. I/O accounting is identical to
// the row executor: every input block is read, every output block
// written.
func (db *DB) batchSelect(sel *algebra.Select, in *Table, res *Result) (*Table, error) {
	n := in.NumRows()
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	mask := make([]bool, n)
	var e laneErrs
	evalPredBatch(sel.Pred, in, active, mask, &e)
	if err := e.first(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	count := 0
	for _, keep := range mask {
		if keep {
			count++
		}
	}
	out := NewTable("", sel.Schema(), db.BlockRows)
	for ci, c := range in.cols {
		out.cols[ci] = c.compact(mask, count)
	}
	out.nrows = count
	stats := OpStats{
		Label:     sel.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(stats)
	res.Ops = append(res.Ops, stats)
	return out, nil
}

// batchProject re-binds whole columns to the output schema — zero copies,
// zero per-row work. Published tables are immutable, so sharing the
// column vectors is safe; only the accounting touches the block counts.
func (db *DB) batchProject(p *algebra.Project, in *Table, res *Result) (*Table, error) {
	outSchema, idx, err := resolveProjection(p, in)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: "", Schema: outSchema, BlockRows: db.BlockRows, nrows: in.nrows}
	out.cols = make([]*colvec, len(idx))
	for i, j := range idx {
		out.cols[i] = in.cols[j]
	}
	stats := OpStats{
		Label:     p.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(stats)
	res.Ops = append(res.Ops, stats)
	return out, nil
}

// evalPredBatch evaluates p over the active lanes of tab, writing each
// lane's truth into out and recording per-lane errors in e. Lanes outside
// the active mask (or already failed) are never touched.
func evalPredBatch(p algebra.Predicate, tab *Table, active, out []bool, e *laneErrs) {
	switch v := p.(type) {
	case *algebra.Comparison:
		evalCompareBatch(v, tab, active, out, e)
	case *algebra.And:
		cur := make([]bool, len(active))
		copy(cur, active)
		for i := range cur {
			if cur[i] {
				out[i] = true
			}
		}
		sub := make([]bool, len(active))
		for _, c := range v.Preds {
			for i := range sub {
				sub[i] = false
			}
			evalPredBatch(c, tab, cur, sub, e)
			for i := range cur {
				if !cur[i] {
					continue
				}
				if e.has(i) {
					cur[i] = false
					continue
				}
				if !sub[i] {
					cur[i], out[i] = false, false
				}
			}
		}
	case *algebra.Or:
		cur := make([]bool, len(active))
		copy(cur, active)
		for i := range cur {
			if cur[i] {
				out[i] = false
			}
		}
		sub := make([]bool, len(active))
		for _, c := range v.Preds {
			for i := range sub {
				sub[i] = false
			}
			evalPredBatch(c, tab, cur, sub, e)
			for i := range cur {
				if !cur[i] {
					continue
				}
				if e.has(i) {
					cur[i] = false
					continue
				}
				if sub[i] {
					cur[i], out[i] = false, true
				}
			}
		}
	case *algebra.Not:
		sub := make([]bool, len(active))
		evalPredBatch(v.Pred, tab, active, sub, e)
		for i := range active {
			if active[i] && !e.has(i) {
				out[i] = !sub[i]
			}
		}
	default:
		err := fmt.Errorf("engine: cannot evaluate predicate type %T", p)
		for i := range active {
			if active[i] {
				e.set(i, err)
			}
		}
	}
}

// cmpHolds mirrors algebra.CompareOp.holds over a three-way comparison.
func cmpHolds(op algebra.CompareOp, cmp int) bool {
	switch op {
	case algebra.OpEq:
		return cmp == 0
	case algebra.OpNotEq:
		return cmp != 0
	case algebra.OpLt:
		return cmp < 0
	case algebra.OpLe:
		return cmp <= 0
	case algebra.OpGt:
		return cmp > 0
	case algebra.OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// cmpSide is one resolved comparison operand: either a literal or a
// column of the input table.
type cmpSide struct {
	col *colvec // nil for a literal
	lit algebra.Value
}

// value returns the operand's value for lane i.
func (s cmpSide) value(i int) algebra.Value {
	if s.col == nil {
		return s.lit
	}
	return s.col.valueAt(i)
}

// numericSide reports whether the operand is numeric on every lane
// (numeric literal, or a typed non-null int/float/date column) and can
// feed the float64 fast kernel.
func (s cmpSide) numericSide() bool {
	if s.col == nil {
		switch s.lit.Kind {
		case algebra.TypeInt, algebra.TypeFloat, algebra.TypeDate:
			return true
		}
		return false
	}
	if s.col.hasNulls() {
		return false
	}
	switch s.col.typedKind() {
	case algebra.TypeInt, algebra.TypeFloat, algebra.TypeDate:
		return true
	}
	return false
}

// stringSide reports whether the operand is a string on every lane.
func (s cmpSide) stringSide() bool {
	if s.col == nil {
		return s.lit.Kind == algebra.TypeString
	}
	return !s.col.hasNulls() && s.col.typedKind() == algebra.TypeString
}

// num returns the operand's float64 image for lane i (numeric sides
// only). Ints and dates convert through float64 exactly as Value.Compare
// does, so comparisons agree with the row engine bit for bit.
func (s cmpSide) num(i int) float64 {
	if s.col == nil {
		if s.lit.Kind == algebra.TypeFloat {
			return s.lit.Float
		}
		return float64(s.lit.Int)
	}
	switch s.col.kind {
	case algebra.TypeFloat:
		return s.col.floats[i]
	default:
		return float64(s.col.ints[i])
	}
}

// str returns the operand's string for lane i (string sides only).
func (s cmpSide) str(i int) string {
	if s.col == nil {
		return s.lit.Str
	}
	return s.col.strs[i]
}

// evalCompareBatch evaluates one comparison over the active lanes.
func evalCompareBatch(c *algebra.Comparison, tab *Table, active, out []bool, e *laneErrs) {
	left, ok := resolveSide(c.Left, tab, active, e)
	if !ok {
		return
	}
	right, ok := resolveSide(c.Right, tab, active, e)
	if !ok {
		return
	}
	switch {
	case left.numericSide() && right.numericSide():
		for i := range active {
			if !active[i] || e.has(i) {
				continue
			}
			a, b := left.num(i), right.num(i)
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out[i] = cmpHolds(c.Op, cmp)
		}
	case left.stringSide() && right.stringSide():
		for i := range active {
			if !active[i] || e.has(i) {
				continue
			}
			a, b := left.str(i), right.str(i)
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out[i] = cmpHolds(c.Op, cmp)
		}
	default:
		// Mixed, null-bearing, or generic lanes: evaluate value-at-a-time,
		// wrapping comparison errors exactly as Comparison.Eval does.
		for i := range active {
			if !active[i] || e.has(i) {
				continue
			}
			cmp, err := left.value(i).Compare(right.value(i))
			if err != nil {
				e.set(i, fmt.Errorf("algebra: evaluating %s: %w", c, err))
				continue
			}
			out[i] = cmpHolds(c.Op, cmp)
		}
	}
}

// resolveSide binds one comparison operand against the table. An unbound
// column reference fails every active lane with the same error the
// row-at-a-time Operand.eval produces, and reports !ok so the caller
// skips the right operand, mirroring the row engine's left-then-right
// evaluation order.
func resolveSide(o algebra.Operand, tab *Table, active []bool, e *laneErrs) (cmpSide, bool) {
	if !o.IsColumn {
		return cmpSide{lit: o.Lit}, true
	}
	// Predicates resolve through Binding.ColumnValue, which uses the
	// first-match IndexOf rule, not the ambiguity-checking Resolve.
	idx := tab.Schema.IndexOf(o.Col)
	if idx < 0 {
		err := fmt.Errorf("algebra: unbound column %s", o.Col)
		for i := range active {
			if active[i] {
				e.set(i, err)
			}
		}
		return cmpSide{}, false
	}
	return cmpSide{col: tab.cols[idx]}, true
}
