package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/datagen"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The differential harness: generate random plans over the paper schema,
// execute them and their rewritten forms on real data, and require
// identical result multisets. This checks, end to end, that every rewrite
// the framework performs (selection push-down, column pruning,
// normalization, decompose/compose, view rewriting) preserves semantics.

// planGen builds random SPJ(+aggregate) plans over a database.
type planGen struct {
	r  *rand.Rand
	db *engine.DB
}

// joinEdges lists the schema's legal equi-join edges.
var joinEdges = []struct {
	lRel, lCol, rRel, rCol string
}{
	{"Product", "Did", "Division", "Did"},
	{"Part", "Pid", "Product", "Pid"},
	{"Order", "Pid", "Product", "Pid"},
	{"Order", "Cid", "Customer", "Cid"},
}

// randomPlan builds a random valid plan: a connected join subgraph with
// random selections and a random projection (or aggregation).
func (g *planGen) randomPlan(t *testing.T) algebra.Node {
	t.Helper()
	// Pick a connected relation set by growing from a random edge.
	edges := g.r.Perm(len(joinEdges))
	rels := map[string]bool{}
	var conds []algebra.JoinCond
	want := 1 + g.r.Intn(3) // 1..3 joins
	for _, ei := range edges {
		e := joinEdges[ei]
		if len(conds) >= want {
			break
		}
		if len(rels) > 0 && !rels[e.lRel] && !rels[e.rRel] {
			continue // keep it connected
		}
		rels[e.lRel] = true
		rels[e.rRel] = true
		conds = append(conds, algebra.JoinCond{
			Left:  algebra.Ref(e.lRel, e.lCol),
			Right: algebra.Ref(e.rRel, e.rCol),
		})
	}
	if len(rels) == 0 {
		rels["Order"] = true
	}

	// Scans, left-deep join in arbitrary order respecting connectivity.
	var plan algebra.Node
	pending := map[string]bool{}
	for rel := range rels {
		pending[rel] = true
	}
	usable := func(c algebra.JoinCond, joined map[string]bool) (string, bool) {
		l, r := c.Left.Relation, c.Right.Relation
		if joined[l] && pending[r] {
			return r, true
		}
		if joined[r] && pending[l] {
			return l, true
		}
		return "", false
	}
	scan := func(rel string) algebra.Node {
		tb, err := g.db.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewScan(rel, tb.Schema)
	}
	joined := map[string]bool{}
	// start anywhere
	for rel := range pending {
		plan = scan(rel)
		joined[rel] = true
		delete(pending, rel)
		break
	}
	for len(pending) > 0 {
		progressed := false
		for _, c := range conds {
			next, ok := usable(c, joined)
			if !ok {
				continue
			}
			// orient the condition so Left resolves in the current plan
			cond := c
			if cond.Left.Relation == next {
				cond = algebra.JoinCond{Left: c.Right, Right: c.Left}
			}
			plan = algebra.NewJoin(plan, scan(next), []algebra.JoinCond{cond})
			joined[next] = true
			delete(pending, next)
			progressed = true
		}
		if !progressed {
			t.Fatalf("disconnected random plan: %v pending", pending)
		}
	}

	// Random selections.
	preds := g.randomPredicates(joined)
	if p := algebra.NewAnd(preds...); p != nil {
		plan = algebra.NewSelect(plan, p)
	}

	// Random head: projection or aggregation.
	schema := plan.Schema()
	if g.r.Intn(4) == 0 {
		// aggregate on a random group column
		gi := g.r.Intn(schema.Len())
		gcol := schema.Columns[gi]
		plan = algebra.NewAggregate(plan,
			[]algebra.ColumnRef{algebra.Ref(gcol.Relation, gcol.Name)},
			[]algebra.Aggregation{{Func: algebra.AggCount, Alias: "n"}})
	} else {
		n := 1 + g.r.Intn(3)
		perm := g.r.Perm(schema.Len())
		var cols []algebra.ColumnRef
		seen := map[string]bool{}
		for _, i := range perm[:n] {
			c := schema.Columns[i]
			ref := algebra.Ref(c.Relation, c.Name)
			if !seen[ref.String()] {
				seen[ref.String()] = true
				cols = append(cols, ref)
			}
		}
		plan = algebra.NewProject(plan, cols)
	}
	if err := algebra.Validate(plan); err != nil {
		t.Fatalf("random plan invalid: %v\n%s", err, plan.Canonical())
	}
	return plan
}

// randomPredicates picks 0..3 predicates over the joined relations.
func (g *planGen) randomPredicates(rels map[string]bool) []algebra.Predicate {
	var candidates []algebra.Predicate
	if rels["Division"] {
		candidates = append(candidates,
			algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("LA")),
			algebra.Eq(algebra.Ref("Division", "city"), algebra.StringVal("SF")))
	}
	if rels["Order"] {
		candidates = append(candidates,
			algebra.Compare(algebra.ColOperand(algebra.Ref("Order", "quantity")), algebra.OpGt, algebra.LitOperand(algebra.IntVal(100))),
			algebra.Compare(algebra.ColOperand(algebra.Ref("Order", "quantity")), algebra.OpLe, algebra.LitOperand(algebra.IntVal(50))))
	}
	if rels["Customer"] {
		candidates = append(candidates,
			algebra.Eq(algebra.Ref("Customer", "city"), algebra.StringVal("LA")))
	}
	if rels["Part"] {
		candidates = append(candidates,
			algebra.Compare(algebra.ColOperand(algebra.Ref("Part", "Tid")), algebra.OpLt, algebra.LitOperand(algebra.IntVal(400))))
	}
	if len(candidates) == 0 {
		return nil
	}
	n := g.r.Intn(3)
	if n > len(candidates) {
		n = len(candidates)
	}
	perm := g.r.Perm(len(candidates))
	var out []algebra.Predicate
	for _, i := range perm[:n] {
		// occasionally wrap in OR with another candidate
		if g.r.Intn(4) == 0 {
			j := perm[(i+1)%len(perm)]
			out = append(out, algebra.NewOr(candidates[i], candidates[j]))
			continue
		}
		out = append(out, candidates[i])
	}
	return out
}

// resultKey renders a result multiset as a sorted string for comparison.
// Column order may differ between plan variants, so each row's values are
// matched by resolved column identity of the ORIGINAL plan's schema.
func resultKey(t *testing.T, res *engine.Result, schema *algebra.Schema) string {
	t.Helper()
	rows := make([]string, 0, res.Table.NumRows())
	for i := 0; i < res.Table.NumRows(); i++ {
		row := res.Table.Row(i)
		vals := make([]string, schema.Len())
		for ci, col := range schema.Columns {
			v, ok := row.ColumnValue(algebra.Ref(col.Relation, col.Name))
			if !ok {
				t.Fatalf("column %s missing from rewritten result", col.QualifiedName())
			}
			vals[ci] = v.String()
		}
		rows = append(rows, fmt.Sprint(vals))
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

// TestRewritesPreserveSemanticsDifferential is the harness entry point.
func TestRewritesPreserveSemanticsDifferential(t *testing.T) {
	db, err := datagen.PaperDB(8, 0.004, 20260704)
	if err != nil {
		t.Fatal(err)
	}
	g := &planGen{r: rand.New(rand.NewSource(99)), db: db}

	rewrites := []struct {
		name string
		fn   func(algebra.Node) (algebra.Node, error)
	}{
		{"pushdown-selections", func(n algebra.Node) (algebra.Node, error) {
			return algebra.PushDownSelections(n), nil
		}},
		{"prune-columns", func(n algebra.Node) (algebra.Node, error) {
			return algebra.PruneColumns(n, nil), nil
		}},
		{"normalize", func(n algebra.Node) (algebra.Node, error) {
			return algebra.Normalize(n), nil
		}},
		{"full-pipeline", func(n algebra.Node) (algebra.Node, error) {
			return algebra.Normalize(algebra.PruneColumns(algebra.PushDownSelections(n), nil)), nil
		}},
		{"decompose-compose", func(n algebra.Node) (algebra.Node, error) {
			d, err := algebra.Decompose(n)
			if err != nil {
				return nil, err
			}
			return d.Compose(), nil
		}},
	}

	const trials = 60
	for trial := 0; trial < trials; trial++ {
		plan := g.randomPlan(t)
		base, err := db.Execute(plan)
		if err != nil {
			t.Fatalf("trial %d: executing original: %v\n%s", trial, err, plan.Canonical())
		}
		baseKey := resultKey(t, base, plan.Schema())
		for _, rw := range rewrites {
			got, err := rw.fn(algebra.Clone(plan))
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, rw.name, err, plan.Canonical())
			}
			if err := algebra.Validate(got); err != nil {
				t.Fatalf("trial %d %s produced invalid plan: %v\n%s", trial, rw.name, err, got.Canonical())
			}
			res, err := db.Execute(got)
			if err != nil {
				t.Fatalf("trial %d %s: executing rewritten: %v\n%s", trial, rw.name, err, got.Canonical())
			}
			if key := resultKey(t, res, plan.Schema()); key != baseKey {
				t.Fatalf("trial %d: %s changed results\noriginal:  %s\nrewritten: %s",
					trial, rw.name, plan.Canonical(), got.Canonical())
			}
		}
	}
}

// TestViewRewritePreservesSemanticsDifferential materializes a random
// plan's join subtree as a view and checks the rewritten execution matches.
func TestViewRewritePreservesSemanticsDifferential(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		db, err := datagen.PaperDB(8, 0.004, int64(3000+trial))
		if err != nil {
			t.Fatal(err)
		}
		g := &planGen{r: rand.New(rand.NewSource(int64(500 + trial))), db: db}
		plan := g.randomPlan(t)

		// Pick a random join subtree to materialize.
		var joins []algebra.Node
		algebra.Walk(plan, func(n algebra.Node) {
			if _, ok := n.(*algebra.Join); ok {
				joins = append(joins, n)
			}
		})
		if len(joins) == 0 {
			continue
		}
		sub := joins[g.r.Intn(len(joins))]
		if _, err := db.Materialize("mv", algebra.Clone(sub)); err != nil {
			t.Fatalf("trial %d: materialize: %v", trial, err)
		}

		direct, err := db.Execute(plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rewritten := db.RewriteForViewSet(plan).Plan
		res, err := db.Execute(rewritten)
		if err != nil {
			t.Fatalf("trial %d: rewritten: %v\n%s", trial, err, rewritten.Canonical())
		}
		if resultKey(t, direct, plan.Schema()) != resultKey(t, res, plan.Schema()) {
			t.Fatalf("trial %d: view rewrite changed results\nplan: %s\nview: %s",
				trial, plan.Canonical(), sub.Canonical())
		}
	}
}
