package core_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
)

// TestExprIdentityOnGeneratedPlans checks the arena against the string keys
// on the plans the generator itself produces, under all five push-down
// variants: within every candidate, vertices are pairwise distinct under
// StructuralKey (one vertex per class, as when the DAG was hash-consed on
// the key strings); across the candidates of one call, equal signatures ⇔
// equal sorted key sets; and every vertex operation — the arena's
// representative node — interns back to one structural class per key.
func TestExprIdentityOnGeneratedPlans(t *testing.T) {
	for _, opts := range []core.GenOptions{
		{},
		{PushDisjunctions: true},
		{PushProjections: true},
		{PushDisjunctions: true, PushProjections: true},
		{NoPushdown: true},
	} {
		est, plans := paperQueryPlans(t, cost.DefaultOptions())
		opts.Delta = &cost.DeltaSpec{DefaultFraction: 0.02}
		cands, err := core.Generate(est, &cost.PaperModel{}, plans, opts)
		if err != nil {
			t.Fatal(err)
		}
		arena := est.Arena()
		classOf := map[string]algebra.StructID{}
		semOf := map[string]algebra.SemID{}
		keySets := map[string]string{}
		for _, c := range cands {
			var keys []string
			for _, v := range c.MVPP.Vertices {
				key := algebra.StructuralKey(v.Op)
				keys = append(keys, key)
				if got := c.MVPP.VertexOf(v.Op); got != v {
					t.Fatalf("opts %+v: VertexOf(%s) = %v, want %s", opts, key, got, v.Name)
				}
				x := arena.Expr(arena.Intern(v.Op))
				if prev, ok := classOf[key]; ok && prev != x.Struct {
					t.Fatalf("opts %+v: key %s has structural classes %d and %d", opts, key, prev, x.Struct)
				}
				classOf[key] = x.Struct
				sem := algebra.SemanticKey(v.Op)
				if prev, ok := semOf[sem]; ok && prev != x.Sem {
					t.Fatalf("opts %+v: semantic key %s has classes %d and %d", opts, sem, prev, x.Sem)
				}
				semOf[sem] = x.Sem
			}
			sort.Strings(keys)
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("opts %+v: candidate %v has two vertices for %s", opts, c.SeedOrder, keys[i])
				}
			}
			joined := strings.Join(keys, "\n")
			if sig, dup := keySets[joined]; dup {
				t.Fatalf("opts %+v: candidates with signatures %q and %q have the same vertex keys", opts, sig, c.Signature)
			}
			keySets[joined] = c.Signature
		}
		// Distinct keys must have distinct classes (the other direction).
		byClass := map[algebra.StructID]string{}
		for key, class := range classOf {
			if prev, ok := byClass[class]; ok {
				t.Fatalf("opts %+v: class %d stands for both\n%s\n%s", opts, class, prev, key)
			}
			byClass[class] = key
		}
		bySem := map[algebra.SemID]string{}
		for key, class := range semOf {
			if prev, ok := bySem[class]; ok {
				t.Fatalf("opts %+v: semantic class %d stands for both\n%s\n%s", opts, class, prev, key)
			}
			bySem[class] = key
		}
	}
}
