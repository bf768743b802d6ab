package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// OpStats records the measured I/O of one operator execution.
type OpStats struct {
	Label     string
	Reads     int64 // block reads performed by the operator
	Writes    int64 // block writes of the operator's result
	OutRows   int
	OutBlocks int
}

// Result is an executed plan's output plus per-operator measurements.
type Result struct {
	Table *Table // anonymous result table
	Ops   []OpStats
}

// Rows materializes the result rows.
func (r *Result) Rows() [][]algebra.Value { return r.Table.materializeRows() }

// TotalReads sums block reads over all operators.
func (r *Result) TotalReads() int64 {
	var n int64
	for _, op := range r.Ops {
		n += op.Reads
	}
	return n
}

// TotalWrites sums block writes over all operators.
func (r *Result) TotalWrites() int64 {
	var n int64
	for _, op := range r.Ops {
		n += op.Writes
	}
	return n
}

// JoinAlgorithm selects the physical join operator.
type JoinAlgorithm int

// Physical join operators.
const (
	// JoinNestedLoop is the block nested-loop join the paper's cost model
	// assumes: blocks(outer) + blocks(outer)·blocks(inner) reads.
	JoinNestedLoop JoinAlgorithm = iota
	// JoinHash builds a hash table on the inner input: blocks(outer) +
	// blocks(inner) reads. Used to measure the hash-join ablation
	// physically.
	JoinHash
)

// SetJoinAlgorithm switches the physical join operator for subsequent
// executions.
func (db *DB) SetJoinAlgorithm(a JoinAlgorithm) { db.joinAlgo = a }

// operators is the one seam between plan traversal (exec, the epoch's rel) and
// the physical operators. batchOperators is its only implementation
// outside _test.go files; the differential harness swaps in the
// row-at-a-time oracle through export_test.go.
type operators interface {
	sel(db *DB, s *algebra.Select, in *Table, res *Result) (*Table, error)
	project(db *DB, p *algebra.Project, in *Table, res *Result) (*Table, error)
	nlJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error)
	hashJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error)
	aggregate(db *DB, a *algebra.Aggregate, in *Table, res *Result) (*Table, error)
	// probe keeps the rows of in whose column col holds a key of ks, in row
	// order; unmetered (a join delta's operand, see probe.go).
	probe(db *DB, in *Table, col int, ks *keySet) *Table
}

// batchOperators runs every operator batch-at-a-time over typed column
// vectors (batch.go, batchjoin.go, batchagg.go).
type batchOperators struct{}

func (batchOperators) sel(db *DB, s *algebra.Select, in *Table, res *Result) (*Table, error) {
	return db.batchSelect(s, in, res)
}

func (batchOperators) project(db *DB, p *algebra.Project, in *Table, res *Result) (*Table, error) {
	return db.batchProject(p, in, res)
}

func (batchOperators) nlJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	return db.batchJoin(j, left, right, res)
}

func (batchOperators) hashJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	return db.batchHashJoin(j, left, right, res)
}

func (batchOperators) aggregate(db *DB, a *algebra.Aggregate, in *Table, res *Result) (*Table, error) {
	return db.batchAggregate(a, in, res)
}

func (batchOperators) probe(db *DB, in *Table, col int, ks *keySet) *Table {
	return db.batchProbe(in, col, ks)
}

// Execute runs a plan against the currently published relation set; see
// RelationSet.Execute.
func (db *DB) Execute(plan algebra.Node) (*Result, error) { return db.Relations().Execute(plan) }

// Execute runs a plan operator-at-a-time: every operator reads its stored
// input block by block and writes its result to a fresh temporary table,
// exactly as the paper's cost formulas assume. Scans resolve base tables
// and materialized views by name, all of them in this one set. The database
// counter accumulates across calls; per-operator numbers are returned in
// the Result.
func (rs *RelationSet) Execute(plan algebra.Node) (*Result, error) {
	if err := rs.db.inj.Hit(fault.SiteEngineExecute); err != nil {
		return nil, err
	}
	if err := algebra.Validate(plan); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	res := &Result{}
	out, err := rs.exec(plan, res)
	if err != nil {
		return nil, err
	}
	// A plan that is just a scan (e.g. a query answered entirely by one
	// materialized view) still costs one pass over the stored result.
	if s, ok := plan.(*algebra.Scan); ok {
		rs.db.account(res, OpStats{
			Label:     "read " + s.Relation,
			Reads:     int64(out.NumBlocks()),
			OutRows:   out.NumRows(),
			OutBlocks: out.NumBlocks(),
		})
	}
	res.Table = out.dense()
	return res, nil
}

// exec evaluates n over the set's relations, metering every operator into
// res. What it returns may carry a selection (see Table.sel); Execute
// gathers it dense, and nothing else sees it.
func (rs *RelationSet) exec(n algebra.Node, res *Result) (*Table, error) {
	db := rs.db
	switch v := n.(type) {
	case *algebra.Scan:
		return rs.relation(v.Relation)
	case *algebra.Select:
		in, err := rs.exec(v.Input, res)
		if err != nil {
			return nil, err
		}
		return db.ops.sel(db, v, in, res)
	case *algebra.Project:
		in, err := rs.exec(v.Input, res)
		if err != nil {
			return nil, err
		}
		return db.ops.project(db, v, in, res)
	case *algebra.Join:
		left, err := rs.exec(v.Left, res)
		if err != nil {
			return nil, err
		}
		right, err := rs.exec(v.Right, res)
		if err != nil {
			return nil, err
		}
		return db.opJoin(v, left, right, res)
	case *algebra.Aggregate:
		in, err := rs.exec(v.Input, res)
		if err != nil {
			return nil, err
		}
		return db.ops.aggregate(db, v, in, res)
	default:
		return nil, fmt.Errorf("engine: cannot execute node type %T", n)
	}
}

// denseSel is σ for the maintenance epoch's walkers, which keep every table
// dense: the selection is gathered before the result leaves.
func (db *DB) denseSel(s *algebra.Select, in *Table, res *Result) (*Table, error) {
	out, err := db.ops.sel(db, s, in, res)
	if err != nil {
		return nil, err
	}
	return out.dense(), nil
}

// opJoin picks the physical join. A metered join (res non-nil: queries and
// recomputation) follows db.joinAlgo, because its block charge is the
// algorithm's. An unmetered one — a join inside the operand a join delta
// pairs against, charged to nobody — takes the hash operator: both
// operators match the same pairs, so a maintained view stays multiset-equal
// to its recomputation. The two legs of a join delta never come here: they
// call nlJoin directly, since the delta-propagation cost formulas assume
// BlockNLJ whatever the setting.
func (db *DB) opJoin(j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	if db.joinAlgo == JoinHash || res == nil {
		return db.ops.hashJoin(db, j, left, right, res)
	}
	return db.ops.nlJoin(db, j, left, right, res)
}

// resolveJoinConds resolves every join condition against the two input
// schemas once, before any row is touched.
func resolveJoinConds(j *algebra.Join, left, right *Table) ([]condIdx, error) {
	conds := make([]condIdx, len(j.On))
	for i, c := range j.On {
		li, err := left.Schema.Resolve(c.Left)
		if err != nil {
			return nil, fmt.Errorf("engine: join condition %s: %w", c, err)
		}
		ri, err := right.Schema.Resolve(c.Right)
		if err != nil {
			return nil, fmt.Errorf("engine: join condition %s: %w", c, err)
		}
		conds[i] = condIdx{li, ri}
	}
	return conds, nil
}

// condIdx is one resolved equi-join condition: column positions in the
// left and right schemas.
type condIdx struct{ li, ri int }

// resolveProjection resolves a projection against its input, once per plan
// node and input columns (algebra.Project.Resolve).
func resolveProjection(p *algebra.Project, in *Table) (*algebra.Projection, error) {
	r, err := p.Resolve(in.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return r, nil
}

// account meters one operator execution onto the result, the database
// counter and the observer. A nil result marks an unmetered evaluation (the
// operands of a join delta) and records nothing.
func (db *DB) account(res *Result, s OpStats) {
	if res == nil {
		return
	}
	res.Ops = append(res.Ops, s)
	db.Counter.AddReads(s.Reads)
	db.Counter.AddWrites(s.Writes)
	db.blockReads.Add(s.Reads)
	db.blockWrites.Add(s.Writes)
	// The guard keeps an unobserved execution from building the event's
	// attributes: they escape to the heap even when Emit drops them.
	if db.obsv != nil {
		db.obsv.Event(obs.EvEngineOp,
			obs.String("op", s.Label),
			obs.Int("reads", s.Reads),
			obs.Int("writes", s.Writes),
			obs.Int("out_rows", int64(s.OutRows)),
			obs.Int("out_blocks", int64(s.OutBlocks)))
	}
}
