// Package engine is an executing in-memory relational engine with
// block-access accounting. It exists to validate the analytic cost model of
// the design framework against counted block I/O: plans execute
// operator-at-a-time over block-structured tables (exactly the evaluation
// discipline the paper's cost formulas assume — every operator reads stored
// input blocks and writes its result), and the engine reports block reads
// and writes per operator.
//
// The engine also manages materialized views: it can materialize any plan,
// refresh it by recomputation (the paper's maintenance policy), and rewrite
// incoming query plans to read matching views instead of recomputing them.
//
// # Concurrency contract
//
// A DB publishes its whole readable state — base tables, materialized views
// and the view-set generation — as one immutable RelationSet behind one
// atomic pointer. Readers (Execute, RewriteForViewSet, Table, Tables, View,
// Views, CatalogFor, or the same calls on a set held from Relations) load
// the pointer and take no lock; any number of them run alongside at most
// one maintainer at a time. The maintainer works in a MaintenanceEpoch:
// BeginMaintenance copies the published set's two small maps into a private
// successor, the epoch's IncrementalRefresh, ApplyDeltas, Refresh,
// Materialize and DropView build the next tables and views beside the
// readers and enter them there, and Commit stores the successor — the only
// publication there is (the DB's own CreateTable, Materialize, Refresh(All),
// IncrementalRefreshAll, DropView and Restore* are each one epoch and one
// commit). Epochs and InsertDelta must be serialized by the caller — a
// single maintenance goroutine, as the serve package's scheduler does — and
// an epoch, which holds every Δ its propagations derived, lives as a local
// from Begin to Commit, never in anything that outlives it. What one
// committed epoch hands the next is integers: a row count per maintained
// subexpression.
//
// What a held RelationSet guarantees: every table and view in it is
// immutable, so one Execute resolves all its scans — two scans of one view
// included — against the same state, and a plan from set.Rewrite executed
// with set.Execute finds exactly the views it was rewritten onto, whatever
// maintenance has published since. And a published set is always a whole
// epoch: every view a maintenance epoch refreshed and every base table it
// grew appear together or not at all, so a view in a loaded set agrees with
// that set's own base tables, and an epoch that failed part-way — ApplyDeltas
// refused, a refresh panicked — is never seen. The only mutable window is the
// setup phase: Table handles returned by CreateTable may be filled with
// Insert freely before the DB is shared across goroutines; afterwards all
// base-table growth goes through InsertDelta and an epoch's ApplyDeltas.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// DefaultBlockRows is the default blocking factor (rows per block).
const DefaultBlockRows = 10

// Table is a block-structured stored relation. Storage is columnar: one
// typed column vector (with a null bitmap) per schema column — the layout
// the vectorized batch executor runs over directly. Block accounting is
// unchanged: a table of n rows occupies ⌈n/BlockRows⌉ blocks regardless of
// layout, so the §4.1 cost model and every measured I/O count are
// identical to the row-major representation this replaced.
type Table struct {
	Name      string
	Schema    *algebra.Schema
	BlockRows int
	cols      []*colvec
	nrows     int
	// sel, when non-nil, is the table's selection vector: its rows are the
	// rows of cols at these ascending lanes, and nrows is len(sel). Only σ
	// and π return such a table, and only RelationSet.exec holds one: every
	// operator it feeds reads through the lanes, and Execute gathers the
	// result dense (see batchSelect).
	sel []int32
	// shared marks an anonymous σ or π result whose columns are a stored
	// relation's; see storedCols.
	shared bool
	// stats caches this table's derived catalog entry. Published tables are
	// immutable (maintenance swaps whole *Table pointers), so a computed
	// entry stays valid for the table's lifetime; the only mutable window is
	// the pre-publication setup phase, which the row-count guard in
	// Derive covers.
	stats atomic.Pointer[catalog.Relation]
	// digest caches Fingerprint under the same discipline and guard.
	digest atomic.Pointer[tableDigest]
	// lin is the table's append lineage (see Mark); nil until the table is
	// marked or extended.
	lin atomic.Pointer[lineage]
}

// NewTable creates an empty table. blockRows ≤ 0 selects DefaultBlockRows.
func NewTable(name string, schema *algebra.Schema, blockRows int) *Table {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	t := &Table{Name: name, Schema: schema, BlockRows: blockRows}
	t.cols = make([]*colvec, schema.Len())
	for i := range t.cols {
		t.cols[i] = &colvec{}
	}
	return t
}

// CheckRows reports whether the table accepts rows: each must be as wide as
// the schema, and each of its values the null (the zero algebra.Value) or a
// value of its column's declared type. It is the one check of a row's shape:
// Insert runs it before it touches a column, and serve runs it before it
// journals a batch. The error names the first refused row and column.
func (t *Table) CheckRows(rows ...[]algebra.Value) error {
	cols := t.Schema.Columns
	for i, r := range rows {
		if len(r) != len(cols) {
			return fmt.Errorf("engine: row width %d does not match schema width %d of %s",
				len(r), len(cols), t.Name)
		}
		for ci, v := range r {
			if v.Kind == cols[ci].Type && v.IsValid() || v == (algebra.Value{}) {
				continue
			}
			return fmt.Errorf("engine: row %d of %s: column %s is declared %s, not %s",
				i, t.Name, cols[ci].Name, cols[ci].Type, v.Kind)
		}
	}
	return nil
}

// Insert appends rows, all or none: a batch CheckRows refuses changes
// nothing. Ingestion is column-at-a-time: every column vector grows by the
// whole batch before the next column is touched. A column whose backing
// array another table already grew into moves to an array of its own first
// (see colvec). An empty Insert changes nothing: a column's rows are
// recoded only as it grows, which the postings' row-count guard relies on.
func (t *Table) Insert(rows ...[]algebra.Value) error {
	if len(rows) == 0 {
		return nil
	}
	if err := t.CheckRows(rows...); err != nil {
		return err
	}
	claimed := true
	for ci, c := range t.cols {
		claimed = c.reserve(len(rows)) && claimed
		for _, r := range rows {
			c.append(r[ci])
		}
	}
	if !claimed {
		t.lin.Store(nil)
	}
	t.nrows += len(rows)
	return nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// NumBlocks returns the occupied block count (⌈rows/blockRows⌉).
func (t *Table) NumBlocks() int {
	return (t.nrows + t.BlockRows - 1) / t.BlockRows
}

// Row materializes row i as a Tuple bound to the table schema.
func (t *Table) Row(i int) *algebra.Tuple {
	return &algebra.Tuple{Schema: t.Schema, Values: t.rowValues(i)}
}

// rowValues materializes row i as a fresh value slice.
func (t *Table) rowValues(i int) []algebra.Value {
	vals := make([]algebra.Value, len(t.cols))
	for ci, c := range t.cols {
		vals[ci] = c.valueAt(i)
	}
	return vals
}

// materializeRows renders the whole table row-major — what Result.Rows
// hands callers and the aggregate merge works over. One pass, one
// allocation per row.
func (t *Table) materializeRows() [][]algebra.Value {
	out := make([][]algebra.Value, t.nrows)
	for i := range out {
		out[i] = t.rowValues(i)
	}
	return out
}

// cloneAppendTable returns the successor of the receiver that holds its rows
// followed by every row of o (schemas must be width-compatible), and leaves
// the receiver as it was, for its concurrent readers. Each column is its
// bulk append (colvec.appended): the first successor of a table claims the
// room past its columns' ends and writes o's rows there in place, so growing
// a table costs O(Δ); any later successor of the same table finds the room
// taken and copies. When every column's claim holds, the successor continues
// the receiver's lineage (see Mark). A digested receiver hands its successor
// the digest, extended by o's rows alone.
func (t *Table) cloneAppendTable(o *Table) *Table {
	u := &Table{Name: t.Name, Schema: t.Schema, BlockRows: t.BlockRows, nrows: t.nrows + o.nrows}
	var claimed bool
	if u.cols, claimed = t.appendedCols(o); claimed {
		u.lin.Store(t.lineage())
	}
	if d := t.digest.Load(); d != nil && d.rows == t.nrows {
		u.digest.Store(&tableDigest{rows: u.nrows, sum: d.sum + o.rowsDigest()})
	}
	return u
}

// appendedCols is every column of the receiver followed by o's, and whether
// every claim held.
func (t *Table) appendedCols(o *Table) ([]*colvec, bool) {
	cols := make([]*colvec, len(t.cols))
	claimed := len(cols) > 0
	for ci, c := range t.cols {
		var ok bool
		cols[ci], ok = c.appended(o.cols[ci])
		claimed = claimed && ok
	}
	return cols, claimed
}

// Slice returns a table view of rows [lo, hi): payloads shared
// (capacity-capped), the same discipline row-slice views had.
func (t *Table) Slice(lo, hi int) *Table {
	u := &Table{Name: t.Name, Schema: t.Schema, BlockRows: t.BlockRows, nrows: hi - lo}
	u.cols = make([]*colvec, len(t.cols))
	for ci, c := range t.cols {
		u.cols[ci] = c.slice(lo, hi)
	}
	return u
}

// appendTable appends every row of o to the receiver, replacing its columns
// by their successors. Only for tables the caller owns (operator outputs
// still under construction) — published tables are immutable.
func (t *Table) appendTable(o *Table) {
	var claimed bool
	if t.cols, claimed = t.appendedCols(o); !claimed {
		t.lin.Store(nil)
	}
	t.nrows += o.nrows
}

// lineage is an append-lineage token. Tables share one exactly when each
// was built from another of them by appends whose claims all held, and a
// table's claimed room is taken once, so the tables of one lineage are
// linear: each holds the rows of every shorter one, in order, followed by
// its own. A token is nothing but its identity, and it is not of zero size:
// Mark and Extends compare token pointers, and Go may give every zero-size
// allocation one address (TestUnrelatedTablesNeverExtend).
type lineage struct{ _ byte }

// lineage returns the table's lineage, giving it one of its own if it has
// none yet.
func (t *Table) lineage() *lineage {
	if l := t.lin.Load(); l != nil {
		return l
	}
	t.lin.CompareAndSwap(nil, new(lineage))
	return t.lin.Load()
}

// Mark identifies a table and its row count at the time it was marked. A
// snapshot store marks each table it persists and asks the next table it is
// given under that name whether it Extends the mark.
type Mark struct {
	lin  *lineage
	rows int
}

// Mark returns the table's mark.
func (t *Table) Mark() Mark { return Mark{lin: t.lineage(), rows: t.nrows} }

// Extends reports whether the table holds the rows of the marked table, in
// the same order, followed by NumRows − (the marked row count) rows of its
// own: true for the marked table itself and for every table built from it
// by appends whose claims all held. False answers are conservative: a
// table that copied (a second successor, a column rebuilt by the append)
// starts a lineage of its own.
func (t *Table) Extends(m Mark) bool {
	return m.lin != nil && t.lin.Load() == m.lin && t.nrows >= m.rows
}

// gatherTable builds an unnamed table from the named rows of the receiver.
func (t *Table) gatherTable(schema *algebra.Schema, blockRows int, idx []int32) *Table {
	u := &Table{Schema: schema, BlockRows: blockRows, nrows: len(idx)}
	u.cols = make([]*colvec, len(t.cols))
	for ci, c := range t.cols {
		u.cols[ci] = c.gather(idx)
	}
	return u
}

// storedCols reports whether the table's columns are a stored relation's —
// a base table's, a view's, a delta buffer's: the table is one (it has a
// name), or a σ or π over one. Only such columns get postings (see
// colvec.postings); an operator's fresh output would build them for nothing.
func (t *Table) storedCols() bool { return t.Name != "" || t.shared }

// dense returns the receiver with its selection applied: itself when it
// carries none, else a fresh table that gathers each column once.
func (t *Table) dense() *Table {
	if t.sel == nil {
		return t
	}
	return t.gatherTable(t.Schema, t.BlockRows, t.sel)
}

// denseCols is dense for an operator that reads only the columns at idx: the
// others of the table it returns are nil.
func (t *Table) denseCols(idx ...int) *Table {
	if t.sel == nil {
		return t
	}
	u := &Table{Schema: t.Schema, BlockRows: t.BlockRows, nrows: t.nrows, cols: make([]*colvec, len(t.cols))}
	for _, i := range idx {
		if i >= 0 && u.cols[i] == nil {
			u.cols[i] = t.cols[i].gather(t.sel)
		}
	}
	return u
}

// Counter tallies block accesses. Reads and writes are independent atomics
// — per-operator accounting runs on every executed operator of every
// concurrent query, so the counter must not serialize concurrent misses.
type Counter struct {
	reads  atomic.Int64
	writes atomic.Int64
}

// AddReads records n block reads.
func (c *Counter) AddReads(n int64) { c.reads.Add(n) }

// AddWrites records n block writes.
func (c *Counter) AddWrites(n int64) { c.writes.Add(n) }

// Reads returns total block reads.
func (c *Counter) Reads() int64 { return c.reads.Load() }

// Writes returns total block writes.
func (c *Counter) Writes() int64 { return c.writes.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
}

// ErrUnknownRelation reports a name that resolves to neither a base table
// nor a materialized view of the set a plan runs on. A plan rewritten onto a
// view can only hit it when executed on a later set than the one it was
// rewritten against. Match it with errors.Is.
var ErrUnknownRelation = errors.New("unknown table")

// DB is a collection of base tables and materialized views sharing one
// block-access counter. See the package documentation for the concurrency
// contract (many lock-free readers, one maintainer).
type DB struct {
	BlockRows int
	Counter   *Counter
	// rels is the published state; see RelationSet.
	rels atomic.Pointer[RelationSet]
	// mu guards the maintainer-side state (deltas, snapStore) and the
	// publication in Commit. No path from Execute or Rewrite takes it.
	mu sync.Mutex
	// deltas holds each base table's pending inserted rows (see
	// InsertDelta); a maintenance epoch freezes them at Begin and trims what
	// it applied at Commit.
	deltas   map[string]*Table
	joinAlgo JoinAlgorithm
	ops      operators

	// arena interns the subexpressions the maintainer propagates deltas
	// through, for the DB's lifetime; nothing else uses it. carried is the
	// row counts the last committed maintenance epoch handed the next (see
	// MaintenanceEpoch), integers keyed by the arena's IDs and by the
	// publication they describe; read at Begin and replaced at Commit, under
	// mu.
	arena   *algebra.Arena
	carried carriedCounts

	// obsv receives one EvEngineOp event per executed operator; blockReads
	// and blockWrites mirror the Counter into the observer's registry. All
	// nil (no-ops) when observability is off; see SetObserver.
	obsv        obs.Observer
	blockReads  *obs.Counter
	blockWrites *obs.Counter

	// inj, when armed via SetInjector, injects faults at the engine's named
	// sites (Execute, Refresh, IncrementalRefresh, ApplyDeltas). Nil — the
	// default — injects nothing, following the same nil-off discipline as
	// obsv.
	inj *fault.Injector

	// snapStore, when wired via SetSnapshotStore, lets an epoch that dropped a
	// view delete its durable snapshot segments. Nil when snapshots are off.
	snapStore SnapshotDropper
}

// SetObserver wires operator-level events and the block-access counters
// into the observer. A nil observer disables instrumentation again. Not
// safe to call concurrently with Execute.
func (db *DB) SetObserver(o obs.Observer) {
	db.obsv = o
	db.blockReads = obs.CounterOf(o, obs.CtrEngineBlockReads)
	db.blockWrites = obs.CounterOf(o, obs.CtrEngineBlockWrites)
}

// SetInjector arms fault injection at the engine's named sites (see
// internal/fault for the site list). A nil injector disables injection
// again. Like SetObserver, not safe to call concurrently with Execute.
func (db *DB) SetInjector(in *fault.Injector) { db.inj = in }

// NewDB creates an empty database with the given default blocking factor.
func NewDB(blockRows int) *DB {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	db := &DB{
		BlockRows: blockRows,
		Counter:   &Counter{},
		deltas:    make(map[string]*Table),
		ops:       batchOperators{},
		arena:     algebra.NewArena(),
	}
	db.rels.Store(&RelationSet{db: db, tables: map[string]*Table{}, views: map[string]*MaterializedView{}})
	return db
}

// CreateTable registers a new empty base table with the database's default
// blocking factor.
func (db *DB) CreateTable(name string, schema *algebra.Schema) (*Table, error) {
	return db.CreateSizedTable(name, schema, db.BlockRows)
}

// CreateSizedTable registers a new empty base table with its own blocking
// factor (rows per block), letting simulations reproduce per-relation row
// widths.
func (db *DB) CreateSizedTable(name string, schema *algebra.Schema, blockRows int) (*Table, error) {
	t := NewTable(name, schema, blockRows)
	if err := db.addTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table looks up a base table.
func (db *DB) Table(name string) (*Table, error) { return db.Relations().Table(name) }

// Tables returns the base table names, sorted.
func (db *DB) Tables() []string { return db.Relations().Tables() }

// HistogramBuckets is the equi-depth bucket count CatalogFor builds for
// numeric attributes.
const HistogramBuckets = 10

// CatalogFor derives a statistics catalog from the actual stored data:
// exact row and block counts, exact per-attribute distinct-value counts,
// and equi-depth histograms on numeric attributes. With this catalog the
// analytic size estimates of the cost package match the engine's measured
// sizes (up to estimation error on predicates). Update frequencies default
// to 1.
func (db *DB) CatalogFor() (*catalog.Catalog, error) { return db.Relations().Catalog(false) }

// CatalogWithViews derives the same statistics catalog as CatalogFor and
// additionally covers the materialized views, each described by its stored
// rows. Plans rewritten over the views scan them by name, so pricing a
// rewritten plan — as the cost-accountability ledger does — requires the
// views to be catalog relations like any base table.
func (db *DB) CatalogWithViews() (*catalog.Catalog, error) { return db.Relations().Catalog(true) }

// TableStats returns the catalog entry describing one stored table — the
// same statistics CatalogFor derives, computed once per published table
// and cached (snapshot checkpoints persist the entry so recovery can prime
// restored tables without rescanning them).
func TableStats(name string, t *Table) *catalog.Relation {
	return new(StatsScratch).Derive(name, t)
}

// Derive is TableStats counting in the scratch's slots. The row-count guard
// drops a cache primed during the setup phase and then outgrown by Insert.
func (s *StatsScratch) Derive(name string, t *Table) *catalog.Relation {
	if rel := t.stats.Load(); rel != nil && rel.Rows == float64(t.nrows) {
		if rel.Name == name {
			return rel
		}
		clone := *rel
		clone.Name = name
		return &clone
	}
	rel := deriveStats(name, t, s)
	t.stats.Store(rel)
	return rel
}

// InstallStats primes the table's statistics cache with a precomputed
// entry — the restore-side half of snapshot stats persistence. The entry
// is rejected (returning false) unless it matches the table's identity and
// exact sizes; its schema is overwritten with the live one so downstream
// consumers never see a deserialized duplicate.
func (t *Table) InstallStats(rel *catalog.Relation) bool {
	if rel == nil || rel.Name != t.Name || len(rel.Attrs) != t.Schema.Len() {
		return false
	}
	if rel.Rows != float64(t.nrows) || rel.Blocks != float64(t.NumBlocks()) {
		return false
	}
	for _, col := range t.Schema.Columns {
		if _, ok := rel.Attrs[col.Name]; !ok {
			return false
		}
	}
	rel.Schema = t.Schema
	t.stats.Store(rel)
	return true
}
