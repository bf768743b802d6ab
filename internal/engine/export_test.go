package engine

// UseRowOracle makes db execute every operator on the row-at-a-time
// reference oracle (rowexec_test.go) from now on, and returns the oracle
// so the caller can check that it ran. Test-only: a binary has no way to
// leave the batch executor.
func (db *DB) UseRowOracle() *RowOracle {
	o := &RowOracle{}
	db.ops = o
	return o
}
