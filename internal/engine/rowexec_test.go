package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// This file is the row-at-a-time reference executor: the operators the
// engine shipped with before the vectorized batch executor replaced them.
// They live in a _test.go file, so no binary links them; the differential
// harness (TestBatchVsRow*, the *Parity tests, FuzzBatchSelectPredicate)
// reaches them through UseRowOracle in export_test.go and asserts the two
// executors produce bit-identical result rows, per-operator stats, and
// journal state. Each operator materializes its columnar input row-major
// exactly once and then evaluates value-at-a-time with per-row interface
// dispatch, the evaluation discipline the original implementation had.

// RowOracle is the operators implementation backed by the row operators.
// It counts the operators it runs so a differential test can prove its
// reference side did not silently execute batch code.
type RowOracle struct{ ran atomic.Int64 }

// Ran reports how many operators the oracle has executed.
func (o *RowOracle) Ran() int64 { return o.ran.Load() }

func (o *RowOracle) sel(db *DB, s *algebra.Select, in *Table, res *Result) (*Table, error) {
	o.ran.Add(1)
	return db.rowSelect(s, in, res)
}

func (o *RowOracle) project(db *DB, p *algebra.Project, in *Table, res *Result) (*Table, error) {
	o.ran.Add(1)
	return db.rowProject(p, in, res)
}

func (o *RowOracle) nlJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	o.ran.Add(1)
	return db.rowJoin(j, left, right, res)
}

func (o *RowOracle) hashJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	o.ran.Add(1)
	return db.rowHashJoin(j, left, right, res)
}

func (o *RowOracle) aggregate(db *DB, a *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	o.ran.Add(1)
	return db.rowAggregate(a, in, res)
}

func (o *RowOracle) probe(db *DB, in *Table, col int, ks *keySet) *Table {
	o.ran.Add(1)
	return db.rowProbe(in, col, ks)
}

// rowProbe keeps, row by row, the rows whose key column holds a key of ks.
func (db *DB) rowProbe(in *Table, col int, ks *keySet) *Table {
	out := NewTable("", in.Schema, in.BlockRows)
	for _, row := range in.materializeRows() {
		if ks.has(row[col]) {
			if err := out.Insert(row); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// has reports whether the set holds v: a number by its float64 image, a
// string by itself.
func (ks *keySet) has(v algebra.Value) bool {
	if ks.strs != nil {
		_, ok := ks.strs[v.Str]
		return ok
	}
	k := float64(v.Int)
	if v.Kind == algebra.TypeFloat {
		k = v.Float
	}
	_, ok := ks.nums[k]
	return ok
}

// rowSelect filters by linear scan: every input block is read once.
func (db *DB) rowSelect(sel *algebra.Select, in *Table, res *Result) (*Table, error) {
	rows := in.materializeRows()
	out := NewTable("", sel.Schema(), db.BlockRows)
	for _, row := range rows {
		ok, err := sel.Pred.Eval(&algebra.Tuple{Schema: in.Schema, Values: row})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if ok {
			if err := out.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	stats := OpStats{
		Label:     sel.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// rowProject streams the input once.
func (db *DB) rowProject(p *algebra.Project, in *Table, res *Result) (*Table, error) {
	r, err := resolveProjection(p, in)
	if err != nil {
		return nil, err
	}
	rows := in.materializeRows()
	out := NewTable("", r.Out, db.BlockRows)
	for _, row := range rows {
		vals := make([]algebra.Value, len(r.Idx))
		for i, j := range r.Idx {
			vals[i] = row[j]
		}
		if err := out.Insert(vals); err != nil {
			return nil, err
		}
	}
	stats := OpStats{
		Label:     p.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// rowJoin is a block nested-loop join with a one-block buffer: the outer
// is read once, the inner once per outer block — blocks(outer) +
// blocks(outer)·blocks(inner) reads, matching the BlockNLJ cost model.
func (db *DB) rowJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	joined := left.Schema.Concat(right.Schema)
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}
	leftRows := left.materializeRows()
	rightRows := right.materializeRows()
	out := NewTable("", joined, db.BlockRows)
	outerBlocks := left.NumBlocks()
	for ob := 0; ob < outerBlocks; ob++ {
		lo := ob * left.BlockRows
		hi := lo + left.BlockRows
		if hi > left.NumRows() {
			hi = left.NumRows()
		}
		for _, rrow := range rightRows {
			for li := lo; li < hi; li++ {
				lrow := leftRows[li]
				match := true
				for _, ci := range conds {
					if !lrow[ci.li].Equal(rrow[ci.ri]) {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				vals := make([]algebra.Value, 0, len(lrow)+len(rrow))
				vals = append(vals, lrow...)
				vals = append(vals, rrow...)
				if err := out.Insert(vals); err != nil {
					return nil, err
				}
			}
		}
	}
	stats := OpStats{
		Label:     j.Label(),
		Reads:     int64(outerBlocks) + int64(outerBlocks)*int64(right.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// rowHashJoin is the reference hash join: the nested loop's Value.Equal
// matching in probe order — every left row, then its matching right rows,
// ascending — charged blocks(left) + blocks(right) reads. It is the
// physical counterpart of the HashJoinModel used by the ablation
// benchmarks; batchHashJoin must agree with it bit for bit. Right rows are
// bucketed by eqKey of the first condition, so a left row with a key meets
// only its bucket; when a key is missing on either side, every right row
// is a candidate. Each candidate is tested on every condition.
func (db *DB) rowHashJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	joined := left.Schema.Concat(right.Schema)
	conds, err := resolveJoinConds(j, left, right)
	if err != nil {
		return nil, err
	}
	rightRows := right.materializeRows()
	all := make([]int, len(rightRows))
	build := make(map[any][]int)
	keyed := len(conds) > 0
	for ri, rrow := range rightRows {
		all[ri] = ri
		if keyed {
			k, ok := eqKey(rrow[conds[0].ri])
			build[k] = append(build[k], ri)
			keyed = ok
		}
	}
	out := NewTable("", joined, db.BlockRows)
	for _, lrow := range left.materializeRows() {
		cands := all
		if keyed {
			if k, ok := eqKey(lrow[conds[0].li]); ok {
				cands = build[k]
			}
		}
		for _, ri := range cands {
			rrow := rightRows[ri]
			match := true
			for _, ci := range conds {
				if !lrow[ci.li].Equal(rrow[ci.ri]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			vals := make([]algebra.Value, 0, len(lrow)+len(rrow))
			vals = append(vals, lrow...)
			vals = append(vals, rrow...)
			if err := out.Insert(vals); err != nil {
				return nil, err
			}
		}
	}
	stats := OpStats{
		Label:     "hash " + j.Label(),
		Reads:     int64(left.NumBlocks()) + int64(right.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// accumulator folds one aggregation's values for one group, a value at a
// time: the reference the batch kernels are checked against. A null takes
// no part (SQL): COUNT(v) does not count it, and SUM, AVG, MIN and MAX of a
// group holding nothing else are the null.
type accumulator struct {
	fn    algebra.AggFunc
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	minV  algebra.Value
	maxV  algebra.Value
}

func (a *accumulator) add(v algebra.Value) error {
	if v == (algebra.Value{}) {
		return nil
	}
	a.count++
	switch a.fn {
	case algebra.AggCount:
		return nil
	case algebra.AggSum, algebra.AggAvg:
		switch v.Kind {
		case algebra.TypeInt, algebra.TypeDate:
			a.sumI += v.Int
			a.sumF += float64(v.Int)
		case algebra.TypeFloat:
			a.isF = true
			a.sumF += v.Float
		default:
			return fmt.Errorf("engine: %s over non-numeric value %s", a.fn, v)
		}
		return nil
	case algebra.AggMin, algebra.AggMax:
		if !a.minV.IsValid() {
			a.minV, a.maxV = v, v
			return nil
		}
		if c, err := v.Compare(a.minV); err != nil {
			return err
		} else if c < 0 {
			a.minV = v
		}
		if c, err := v.Compare(a.maxV); err != nil {
			return err
		} else if c > 0 {
			a.maxV = v
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown aggregate function %v", a.fn)
	}
}

func (a *accumulator) result() algebra.Value {
	switch a.fn {
	case algebra.AggCount:
		return algebra.IntVal(a.count)
	case algebra.AggSum:
		if a.count == 0 {
			return algebra.Value{}
		}
		if a.isF {
			return algebra.FloatVal(a.sumF)
		}
		return algebra.IntVal(a.sumI)
	case algebra.AggAvg:
		if a.count == 0 {
			return algebra.Value{}
		}
		return algebra.FloatVal(a.sumF / float64(a.count))
	case algebra.AggMin:
		return a.minV
	case algebra.AggMax:
		return a.maxV
	default:
		return algebra.Value{}
	}
}

// rowAggregate is the reference hash aggregation: one pass over the
// input, one accumulator row per group, groups emitted in first-seen
// order.
func (db *DB) rowAggregate(agg *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	groupIdx, argIdx, err := resolveAggregate(agg, in)
	if err != nil {
		return nil, err
	}

	type group struct {
		keyVals []algebra.Value
		accs    []*accumulator
	}
	byKey := make(map[string]*group)
	var order []*group
	for _, row := range in.materializeRows() {
		var key strings.Builder
		for _, gi := range groupIdx {
			key.WriteString(row[gi].String())
			key.WriteByte('|')
		}
		g, ok := byKey[key.String()]
		if !ok {
			g = &group{keyVals: make([]algebra.Value, len(groupIdx)), accs: make([]*accumulator, len(agg.Aggs))}
			for i, gi := range groupIdx {
				g.keyVals[i] = row[gi]
			}
			for i, a := range agg.Aggs {
				g.accs[i] = &accumulator{fn: a.Func}
			}
			byKey[key.String()] = g
			order = append(order, g)
		}
		for i := range agg.Aggs {
			if argIdx[i] < 0 {
				g.accs[i].count++
				continue
			}
			if err := g.accs[i].add(row[argIdx[i]]); err != nil {
				return nil, err
			}
		}
	}

	out := NewTable("", agg.Schema(), db.BlockRows)
	for _, g := range order {
		row := make([]algebra.Value, 0, len(g.keyVals)+len(g.accs))
		row = append(row, g.keyVals...)
		for _, acc := range g.accs {
			row = append(row, acc.result())
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	stats := OpStats{
		Label:     agg.Label(),
		Reads:     int64(in.NumBlocks()),
		Writes:    int64(out.NumBlocks()),
		OutRows:   out.NumRows(),
		OutBlocks: out.NumBlocks(),
	}
	db.account(res, stats)
	return out, nil
}

// eqKey returns a key on which Value.Equal is plain key equality, and false
// for a value whose matches are not one key's: NaN equals every number, and
// a null or invalid value equals nothing. Numbers key on their float64
// image, as Value.Compare compares them (3 == 3.0 == date(3), ±0 one key);
// strings on themselves. A number never equals a string.
func eqKey(v algebra.Value) (any, bool) {
	switch v.Kind {
	case algebra.TypeInt, algebra.TypeDate:
		return float64(v.Int), true
	case algebra.TypeFloat:
		return v.Float, !math.IsNaN(v.Float)
	case algebra.TypeString:
		return v.Str, true
	}
	return nil, false
}
