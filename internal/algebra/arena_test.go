package algebra

import (
	"math/rand"
	"sync"
	"testing"
)

// subtrees lists every node of the plans.
func subtrees(plans ...Node) []Node {
	var out []Node
	for _, p := range plans {
		Walk(p, func(n Node) { out = append(out, n) })
	}
	return out
}

// checkIdentity interns the nodes and requires, for every pair, that the
// arena's integer identities agree exactly with the string keys: same
// StructID ⇔ same StructuralKey, same SemID ⇔ same SemanticKey, and same
// ExprID ⇒ same output schema, column order included. It returns how many
// pairs share a structural class under different canonical forms, and how
// many a semantic class under different structural classes — the cases that
// make the property more than pointer equality.
func checkIdentity(t *testing.T, nodes []Node) (commuted, reassociated int) {
	t.Helper()
	a := NewArena()
	type ident struct {
		expr     Expr
		id       ExprID
		str, sem string
		canon    string
		schema   *Schema
	}
	ids := make([]ident, len(nodes))
	for i, n := range nodes {
		id := a.Intern(n)
		ids[i] = ident{a.Expr(id), id, StructuralKey(n), SemanticKey(n), n.Canonical(), n.Schema()}
		if again := a.Intern(Clone(n)); again != id {
			t.Fatalf("a clone of %s interns to %d, the original to %d", n.Canonical(), again, id)
		}
	}
	for i, x := range ids {
		for _, y := range ids[i+1:] {
			if (x.expr.Struct == y.expr.Struct) != (x.str == y.str) {
				t.Fatalf("structural identity disagrees with StructuralKey:\n%s (class %d)\n%s (class %d)",
					x.str, x.expr.Struct, y.str, y.expr.Struct)
			}
			if (x.expr.Sem == y.expr.Sem) != (x.sem == y.sem) {
				t.Fatalf("semantic identity disagrees with SemanticKey:\n%s (class %d)\n%s (class %d)",
					x.sem, x.expr.Sem, y.sem, y.expr.Sem)
			}
			if x.id == y.id && !x.schema.Equal(y.schema) {
				t.Fatalf("one expression for two output schemas:\n%s %s\n%s %s", x.str, x.schema, y.str, y.schema)
			}
			if x.str == y.str && x.canon != y.canon {
				commuted++
			}
			if x.sem == y.sem && x.str != y.str {
				reassociated++
			}
		}
	}
	return commuted, reassociated
}

// identityPlan draws a plan over the Division–Product–Order–Customer chain
// from a small space, so that two draws often coincide up to exactly the
// rewrites the keys ignore: commuted joins, re-associated join chains,
// stacked versus merged selections, permuted conjuncts and columns.
func identityPlan(r *rand.Rand) Node {
	scans := []Node{
		NewScan("Division", divisionSchema()), NewScan("Product", productSchema()),
		NewScan("Order", orderSchema()), NewScan("Customer", customerSchema()),
	}
	links := []JoinCond{ // links[i] joins relation i with relation i+1
		{Left: Ref("Division", "Did"), Right: Ref("Product", "Did")},
		{Left: Ref("Product", "Pid"), Right: Ref("Order", "Pid")},
		{Left: Ref("Order", "Cid"), Right: Ref("Customer", "Cid")},
	}
	filters := [][]Predicate{
		{Eq(Ref("Division", "city"), StringVal("LA")), Eq(Ref("Division", "city"), StringVal("SF")),
			NewOr(Eq(Ref("Division", "city"), StringVal("LA")), Eq(Ref("Division", "name"), StringVal("Re")))},
		{Eq(Ref("Product", "name"), StringVal("nut"))},
		{Compare(ColOperand(Ref("Order", "quantity")), OpGt, LitOperand(IntVal(100))),
			Compare(ColOperand(Ref("Order", "quantity")), OpLe, LitOperand(IntVal(500)))},
		{Eq(Ref("Customer", "city"), StringVal("SF"))},
	}
	// filter wraps n in a random subset of the predicates, as one
	// conjunction or as stacked selections, in random order.
	filter := func(n Node, preds []Predicate) Node {
		var picked []Predicate
		for _, i := range r.Perm(len(preds)) {
			if r.Intn(2) == 0 {
				picked = append(picked, preds[i])
			}
		}
		switch {
		case len(picked) == 0:
			return n
		case r.Intn(2) == 0:
			return NewSelect(n, &And{Preds: picked}) // as drawn, not canonically ordered
		}
		for _, p := range picked {
			n = NewSelect(n, p)
		}
		return n
	}
	lo := r.Intn(len(scans))
	hi := lo + r.Intn(len(scans)-lo)
	var build func(lo, hi int) Node
	build = func(lo, hi int) Node {
		if lo == hi {
			return filter(scans[lo], filters[lo])
		}
		cut := lo + r.Intn(hi-lo)
		left, right, on := build(lo, cut), build(cut+1, hi), links[cut]
		if r.Intn(2) == 0 {
			left, right, on = right, left, JoinCond{Left: on.Right, Right: on.Left}
		}
		return NewJoin(left, right, []JoinCond{on})
	}
	plan := build(lo, hi)
	var cols []ColumnRef
	for _, c := range plan.Schema().Columns {
		if r.Intn(3) == 0 {
			cols = append(cols, Ref(c.Relation, c.Name))
		}
	}
	r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	switch {
	case len(cols) == 0:
		return plan
	case r.Intn(4) == 0:
		return NewAggregate(plan, cols, []Aggregation{{Func: AggCount, Alias: "n"}})
	}
	return NewProject(plan, cols)
}

// TestExprIdentity: the arena's structural and semantic IDs partition plan
// nodes exactly as StructuralKey and SemanticKey do, on the rewrite
// fixtures and on drawn plans that differ by the rewrites the keys ignore.
func TestExprIdentity(t *testing.T) {
	nodes := subtrees(rewriteFixtures()...)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		nodes = append(nodes, subtrees(identityPlan(r))...)
	}
	commuted, reassociated := checkIdentity(t, nodes)
	if commuted == 0 || reassociated == 0 {
		t.Errorf("vacuous corpus: %d commuted pairs, %d re-associated pairs", commuted, reassociated)
	}
}

func FuzzExprIdentity(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(7), int64(7))
	f.Fuzz(func(t *testing.T, a, b int64) {
		ra, rb := rand.New(rand.NewSource(a)), rand.New(rand.NewSource(b))
		var nodes []Node
		for i := 0; i < 4; i++ {
			nodes = append(nodes, subtrees(identityPlan(ra), identityPlan(rb))...)
		}
		checkIdentity(t, nodes)
	})
}

// TestArenaBuildersMatchIntern: an expression assembled through the arena's
// constructors is the one interning the equivalent node tree yields.
func TestArenaBuildersMatchIntern(t *testing.T) {
	a := NewArena()
	pd := NewScan("Product", productSchema())
	div := NewScan("Division", divisionSchema())
	la := Eq(Ref("Division", "city"), StringVal("LA"))
	big := Eq(Ref("Division", "name"), StringVal("Re"))
	on := []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}}
	cols := []ColumnRef{Ref("Product", "name"), Ref("Division", "city")}
	want := a.Intern(NewProject(NewJoin(pd, NewSelect(div, NewAnd(la, big)), on), cols))

	sel := a.Select(a.Intern(div), append(a.Conjuncts(big), a.Conjuncts(la)...))
	got := a.Project(a.Join(a.Intern(pd), sel, on), cols)
	if got != want {
		t.Fatalf("built expression %d, interned %d", got, want)
	}
	if err := Validate(a.Node(got)); err != nil {
		t.Fatal(err)
	}
	// Replacing the selection's input keeps the operator and parameters.
	swapped := a.WithChildren(sel, a.Intern(pd), NoExpr)
	if s, ok := a.Node(swapped).(*Select); !ok || s.Input.Canonical() != pd.Canonical() || !PredEqual(s.Pred, NewAnd(la, big)) {
		t.Fatalf("WithChildren built %s", a.Node(swapped).Canonical())
	}
	if a.WithChildren(sel, a.Intern(div), NoExpr) != sel {
		t.Fatal("WithChildren over the same children made a new expression")
	}
	agg := []Aggregation{{Func: AggCount, Alias: "n"}}
	if a.Aggregate(sel, cols[1:], agg) != a.Intern(NewAggregate(a.Node(sel), cols[1:], agg)) {
		t.Fatal("built aggregate differs from the interned one")
	}
}

// TestNodesSharedAcrossGoroutines: plan nodes are read-only after
// construction — schemas resolve and arenas intern concurrently without a
// data race (run under -race).
func TestNodesSharedAcrossGoroutines(t *testing.T) {
	plans := rewriteFixtures()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			for _, p := range plans {
				Walk(p, func(n Node) {
					if n.Schema().Len() == 0 {
						t.Errorf("empty schema for %s", n.Canonical())
					}
					a.Intern(n)
				})
			}
		}()
	}
	wg.Wait()
}
