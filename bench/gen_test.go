package main

import (
	"strings"
	"testing"
)

func sqlList(s *Spec) string {
	var b strings.Builder
	for _, q := range s.Queries {
		b.WriteString(q.SQL)
		b.WriteByte('\n')
	}
	return b.String()
}

func zipfDraws(seed int64, client int) []int {
	z := NewZipf(seed, client, numQueries)
	out := make([]int, 2000)
	for i := range out {
		out[i] = z.Next()
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if a.String() != b.String() {
		t.Fatalf("the same seed produced two catalog specs:\n%s\n---\n%s", a, b)
	}
	if sqlList(a) != sqlList(b) {
		t.Fatal("the same seed produced two SQL lists")
	}
	if a.DataSeed != b.DataSeed {
		t.Fatalf("the same seed produced data seeds %d and %d", a.DataSeed, b.DataSeed)
	}
	da, db := zipfDraws(7, 1), zipfDraws(7, 1)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("Zipf draw %d is %d, then %d", i, da[i], db[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := Generate(1), Generate(2)
	if sqlList(a) == sqlList(b) {
		t.Error("seeds 1 and 2 produced the same SQL list")
	}
	if a.DataSeed == b.DataSeed {
		t.Error("seeds 1 and 2 produced the same data seed")
	}
	same := true
	da, db := zipfDraws(1, 0), zipfDraws(2, 0)
	for i := range da {
		same = same && da[i] == db[i]
	}
	if same {
		t.Error("seeds 1 and 2 produced the same Zipf draws")
	}
	// Two clients of one seed must not replay each other either.
	same = true
	dc := zipfDraws(1, 1)
	for i := range da {
		same = same && da[i] == dc[i]
	}
	if same {
		t.Error("clients 0 and 1 of seed 1 drew the same sequence")
	}
}

// The schema does not depend on the seed, and the seeds' workloads are the
// same up to renaming: as many joins, filters and aggregates in every one.
func TestSeedsShareSchemaAndShape(t *testing.T) {
	shape := func(s *Spec) string {
		var b strings.Builder
		for _, q := range s.Queries {
			b.WriteString(strings.Repeat("j", strings.Count(q.SQL, ".id")))
			b.WriteString(strings.Repeat("f", strings.Count(q.SQL, ".attr = ")))
			b.WriteString(strings.Repeat("g", strings.Count(q.SQL, "GROUP BY")))
			b.WriteByte(' ')
		}
		return b.String()
	}
	tables := func(s *Spec) string { return s.String()[:strings.Index(s.String(), "query ")] }
	ref := Generate(1)
	for seed := int64(2); seed <= 5; seed++ {
		s := Generate(seed)
		if tables(s) != tables(ref) {
			t.Errorf("seed %d changed the schema", seed)
		}
		if shape(s) != shape(ref) {
			t.Errorf("seed %d changed the workload's shape:\n%s\n%s", seed, shape(s), shape(ref))
		}
	}
}

func TestGeneratedQueriesBind(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		spec := Generate(seed)
		if len(spec.Queries) != numQueries {
			t.Fatalf("seed %d generated %d queries, want %d", seed, len(spec.Queries), numQueries)
		}
		if _, err := spec.NewDesigner(); err != nil {
			t.Errorf("seed %d: AddQuery rejected a generated query: %v", seed, err)
		}
		if _, err := spec.InternalCatalog(); err != nil {
			t.Errorf("seed %d: internal catalog: %v", seed, err)
		}
	}
}

func TestZipfFollowsItsLaw(t *testing.T) {
	const n = 200_000
	z := NewZipf(3, 0, numQueries)
	counts := make([]int, numQueries)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// P(rank 0) / P(rank 1) = 2^1.1 ≈ 2.14.
	if r := float64(counts[0]) / float64(counts[1]); r < 2.0 || r > 2.3 {
		t.Errorf("rank 0 was drawn %.2f times as often as rank 1, want about 2.14", r)
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("rank %d was never drawn in %d draws", i, n)
		}
	}
}
