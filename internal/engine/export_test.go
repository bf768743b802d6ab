package engine

import (
	"fmt"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// UseRowOracle makes db execute every operator on the row-at-a-time
// reference oracle (rowexec_test.go) from now on, and returns the oracle
// so the caller can check that it ran. Test-only: a binary has no way to
// leave the batch executor.
func (db *DB) UseRowOracle() *RowOracle {
	o := &RowOracle{}
	db.ops = o
	return o
}

// JoinSpy sits in the operators seam and counts which join kernel every
// join — metered or not — was sent to, and how many probes ran.
type JoinSpy struct {
	operators
	NestedLoop, Hash, Probe int
}

func (s *JoinSpy) probe(db *DB, in *Table, col int, ks *keySet) *Table {
	s.Probe++
	return s.operators.probe(db, in, col, ks)
}

func (s *JoinSpy) nlJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	s.NestedLoop++
	return s.operators.nlJoin(db, j, left, right, res)
}

func (s *JoinSpy) hashJoin(db *DB, j *algebra.Join, left, right *Table, res *Result) (*Table, error) {
	s.Hash++
	return s.operators.hashJoin(db, j, left, right, res)
}

// SpyJoins wraps db's current operators in a JoinSpy.
func (db *DB) SpyJoins() *JoinSpy {
	s := &JoinSpy{operators: db.ops}
	db.ops = s
	return s
}

// CachedFingerprint reports the digest the table holds for its current
// rows without computing one: what a carried digest looks like from outside.
func (t *Table) CachedFingerprint() (uint64, bool) {
	d := t.digest.Load()
	if d == nil || d.rows != t.nrows {
		return 0, false
	}
	return d.sum, true
}

// The checkpoint kernels' oracles (stats_reference_test.go), for the
// layer benchmark's reference run and the statistics cage.
var (
	ReferenceRelationStats = referenceRelationStats
	ReferenceFingerprint   = referenceFingerprint
	IdenticalRelation      = identicalRelation
)

// Operand evaluates plan whole the way the epoch evaluates the new-state
// operand of a join delta whose keys cannot be probed — unmetered, over the
// base tables plus the frozen pending rows — and counts it as evaluated
// whole.
func (ep *MaintenanceEpoch) Operand(plan algebra.Node) (*Table, error) {
	ep.whole++
	return ep.operand(plan, newState, nil)
}

// CarriedCounts reports how many row counts the next epoch would find
// carried: none once a publication other than a maintenance epoch came
// after the last one that committed.
func (db *DB) CarriedCounts() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.carried.seq != db.rels.Load().seq {
		return 0
	}
	return len(db.carried.rows)
}

// HideCarriedCounts makes the next epochs find no carried row count, as if
// a publication had dropped them, until the returned func puts them back.
// Only an epoch that is let go may run in between.
func (db *DB) HideCarriedCounts() (restore func()) {
	db.mu.Lock()
	defer db.mu.Unlock()
	kept := db.carried
	db.carried = carriedCounts{}
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		db.carried = kept
	}
}

// SuccessorSteps runs TestSuccessorsOfOneTable's steps at one parent size
// and calls its check after each with every table built so far.
var SuccessorSteps = successorSteps

// DictionaryFault reports the first string column of the table whose
// dictionary holds a string twice, or that has a code past its dictionary,
// or whose index sends one of its strings to another code; nil when every
// string column is sound.
func (t *Table) DictionaryFault() error {
	for ci, c := range t.cols {
		if c.codes == nil {
			continue
		}
		at := make(map[string]int, len(c.dict))
		for k, s := range c.dict {
			if j, ok := at[s]; ok {
				return fmt.Errorf("column %d: %q is entries %d and %d of its dictionary", ci, s, j, k)
			}
			at[s] = k
			if got, ok := c.index[s]; c.index != nil && (!ok || int(got) != k) {
				return fmt.Errorf("column %d: the index sends %q, entry %d, to %d (%v)", ci, s, k, got, ok)
			}
		}
		for i, code := range c.codes[:c.n] {
			if int(code) >= len(c.dict) {
				return fmt.Errorf("column %d: row %d has code %d of a %d-string dictionary", ci, i, code, len(c.dict))
			}
		}
	}
	return nil
}
