package algebra

import (
	"strings"
	"sync"
	"testing"
)

// paperPlan builds Query 1 of the paper:
//
//	π Pd.name ( Product ⋈ σ city="LA"(Division) )
func paperPlanQ1() Node {
	div := NewScan("Division", divisionSchema())
	pd := NewScan("Product", productSchema())
	tmp1 := NewSelect(div, Eq(Ref("Division", "city"), StringVal("LA")))
	tmp2 := NewJoin(pd, tmp1, []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}})
	return NewProject(tmp2, []ColumnRef{Ref("Product", "name")})
}

func TestScanBasics(t *testing.T) {
	s := NewScan("Division", divisionSchema())
	if s.Schema().Len() != 3 {
		t.Errorf("schema width = %d", s.Schema().Len())
	}
	if len(s.Children()) != 0 {
		t.Error("scan has children")
	}
	if s.Canonical() != "scan(Division)" {
		t.Errorf("Canonical = %q", s.Canonical())
	}
	if s.Label() != "Division" {
		t.Errorf("Label = %q", s.Label())
	}
}

func TestSelectSchemaPassthrough(t *testing.T) {
	div := NewScan("Division", divisionSchema())
	sel := NewSelect(div, Eq(Ref("Division", "city"), StringVal("LA")))
	if !sel.Schema().Equal(div.Schema()) {
		t.Error("selection must not change schema")
	}
	if !strings.Contains(sel.Canonical(), `Division.city = "LA"`) {
		t.Errorf("Canonical = %q", sel.Canonical())
	}
}

func TestProjectSchema(t *testing.T) {
	p := paperPlanQ1()
	s := p.Schema()
	if s.Len() != 1 || s.Columns[0].QualifiedName() != "Product.name" {
		t.Errorf("schema = %s", s)
	}
}

func TestJoinSchemaConcat(t *testing.T) {
	pd := NewScan("Product", productSchema())
	div := NewScan("Division", divisionSchema())
	j := NewJoin(pd, div, []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}})
	if j.Schema().Len() != 6 {
		t.Errorf("join width = %d", j.Schema().Len())
	}
	if got := len(j.Children()); got != 2 {
		t.Errorf("children = %d", got)
	}
}

func TestCanonicalJoinOrderSensitive(t *testing.T) {
	pd := NewScan("Product", productSchema())
	div := NewScan("Division", divisionSchema())
	on := []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}}
	onRev := []JoinCond{{Left: Ref("Division", "Did"), Right: Ref("Product", "Did")}}
	a := NewJoin(pd, div, on)
	b := NewJoin(div, pd, onRev)
	if a.Canonical() == b.Canonical() {
		t.Error("Canonical should distinguish physical join order")
	}
	if SemanticKey(a) != SemanticKey(b) {
		t.Errorf("SemanticKey should unify commuted joins:\n%s\n%s", SemanticKey(a), SemanticKey(b))
	}
}

func TestSemanticKeyAssociativity(t *testing.T) {
	pd := NewScan("Product", productSchema())
	div := NewScan("Division", divisionSchema())
	pt := NewScan("Part", NewSchema(
		Column{Relation: "Part", Name: "Tid", Type: TypeInt},
		Column{Relation: "Part", Name: "name", Type: TypeString},
		Column{Relation: "Part", Name: "Pid", Type: TypeInt},
	))
	pdDiv := []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}}
	ptPd := []JoinCond{{Left: Ref("Part", "Pid"), Right: Ref("Product", "Pid")}}
	// (Pd ⋈ Div) ⋈ Pt  vs  Pt ⋈ (Pd ⋈ Div)  vs  (Pt ⋈ Pd) ⋈ Div
	a := NewJoin(NewJoin(pd, div, pdDiv), pt, []JoinCond{{Left: Ref("Product", "Pid"), Right: Ref("Part", "Pid")}})
	b := NewJoin(pt, NewJoin(pd, div, pdDiv), ptPd)
	c := NewJoin(NewJoin(pt, pd, ptPd), div, []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}})
	ka, kb, kc := SemanticKey(a), SemanticKey(b), SemanticKey(c)
	if ka != kb || kb != kc {
		t.Errorf("associativity not normalized:\n%s\n%s\n%s", ka, kb, kc)
	}
}

func TestSemanticKeyStackedSelections(t *testing.T) {
	div := NewScan("Division", divisionSchema())
	la := Eq(Ref("Division", "city"), StringVal("LA"))
	re := Eq(Ref("Division", "name"), StringVal("Re"))
	a := NewSelect(NewSelect(div, la), re)
	b := NewSelect(NewSelect(div, re), la)
	c := NewSelect(div, NewAnd(la, re))
	if SemanticKey(a) != SemanticKey(b) || SemanticKey(b) != SemanticKey(c) {
		t.Errorf("selection stacking not normalized:\n%s\n%s\n%s", SemanticKey(a), SemanticKey(b), SemanticKey(c))
	}
}

func TestSemanticKeyDistinguishesDifferentPredicates(t *testing.T) {
	div := NewScan("Division", divisionSchema())
	a := NewSelect(div, Eq(Ref("Division", "city"), StringVal("LA")))
	b := NewSelect(div, Eq(Ref("Division", "city"), StringVal("SF")))
	if SemanticKey(a) == SemanticKey(b) {
		t.Error("different selections must have different keys")
	}
}

func TestStructuralKeyCommutativeNotAssociative(t *testing.T) {
	pd := NewScan("Product", productSchema())
	div := NewScan("Division", divisionSchema())
	pt := NewScan("Part", NewSchema(
		Column{Relation: "Part", Name: "Tid", Type: TypeInt},
		Column{Relation: "Part", Name: "Pid", Type: TypeInt},
	))
	pdDiv := []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}}
	// commuted two-way joins unify
	a := NewJoin(pd, div, pdDiv)
	b := NewJoin(div, pd, []JoinCond{{Left: Ref("Division", "Did"), Right: Ref("Product", "Did")}})
	if StructuralKey(a) != StructuralKey(b) {
		t.Errorf("commuted joins differ:\n%s\n%s", StructuralKey(a), StructuralKey(b))
	}
	// different groupings stay distinct
	grouped := NewJoin(a, pt, []JoinCond{{Left: Ref("Product", "Pid"), Right: Ref("Part", "Pid")}})
	regrouped := NewJoin(NewJoin(pd, pt, []JoinCond{{Left: Ref("Product", "Pid"), Right: Ref("Part", "Pid")}}), div,
		[]JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}})
	if StructuralKey(grouped) == StructuralKey(regrouped) {
		t.Error("different join groupings must have different structural keys")
	}
	// while SemanticKey unifies them
	if SemanticKey(grouped) != SemanticKey(regrouped) {
		t.Error("SemanticKey should unify regroupings")
	}
}

func TestStructuralKeySelections(t *testing.T) {
	div := NewScan("Division", divisionSchema())
	la := Eq(Ref("Division", "city"), StringVal("LA"))
	re := Eq(Ref("Division", "name"), StringVal("Re"))
	// Conjunct order within one selection is canonicalized...
	a := NewSelect(div, NewAnd(la, re))
	b := NewSelect(div, NewAnd(re, la))
	if StructuralKey(a) != StructuralKey(b) {
		t.Errorf("conjunct order changed key:\n%s\n%s", StructuralKey(a), StructuralKey(b))
	}
	// ...but stacking is structural: σre(σla(X)) keeps σla(X) shareable,
	// unlike the merged σ(la∧re)(X).
	stacked := NewSelect(NewSelect(div, la), re)
	if StructuralKey(stacked) == StructuralKey(a) {
		t.Error("stacked selection should differ from merged selection")
	}
}

func TestLeaves(t *testing.T) {
	p := paperPlanQ1()
	got := Leaves(p)
	if len(got) != 2 || got[0] != "Division" || got[1] != "Product" {
		t.Errorf("Leaves = %v", got)
	}
}

func TestWalkOrder(t *testing.T) {
	var labels []string
	Walk(paperPlanQ1(), func(n Node) { labels = append(labels, n.Label()) })
	if len(labels) != 5 {
		t.Fatalf("visited %d nodes: %v", len(labels), labels)
	}
	if !strings.HasPrefix(labels[0], "π") {
		t.Errorf("pre-order should start at root, got %q", labels[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := paperPlanQ1()
	cl := Clone(orig)
	if !Equal(orig, cl) {
		t.Fatal("clone not equal to original")
	}
	// mutate the clone's projection
	cl.(*Project).Cols[0] = Ref("Product", "Pid")
	if Equal(orig, cl) {
		t.Error("mutating clone affected original (aliased slices)")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		node    Node
		wantErr string
	}{
		{"valid plan", paperPlanQ1(), ""},
		{"nil predicate", NewSelect(NewScan("Division", divisionSchema()), nil), "nil predicate"},
		{"bad selection column", NewSelect(NewScan("Division", divisionSchema()), Eq(Ref("Order", "date"), IntVal(1))), "unknown column"},
		{"empty projection", NewProject(NewScan("Division", divisionSchema()), nil), "no columns"},
		{"bad projection column", NewProject(NewScan("Division", divisionSchema()), []ColumnRef{Ref("", "nope")}), "unknown column"},
		{"cartesian join", NewJoin(NewScan("Division", divisionSchema()), NewScan("Product", productSchema()), nil), "no conditions"},
		{"join cond wrong side", NewJoin(
			NewScan("Division", divisionSchema()),
			NewScan("Product", productSchema()),
			[]JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}},
		), "left side"},
		{"empty scan name", NewScan("", divisionSchema()), "empty relation"},
		{"scan without schema", &Scan{Relation: "X"}, "no schema"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.node)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestEqualNil(t *testing.T) {
	if !Equal(nil, nil) {
		t.Error("Equal(nil, nil) = false")
	}
	if Equal(nil, paperPlanQ1()) || Equal(paperPlanQ1(), nil) {
		t.Error("nil vs non-nil should be unequal")
	}
}

// TestProjectResolveOncePerInput: a projection resolved against an input
// returns its output schema, positions and label; asked again on the same
// columns — the same schema or an equal one built afresh, as a join's is on
// every execution — it returns the kept resolution without allocating; on
// other columns it resolves anew; a missing column is an error.
func TestProjectResolveOncePerInput(t *testing.T) {
	p := NewProject(NewScan("Product", productSchema()), []ColumnRef{Ref("Product", "Did"), Ref("", "name")})
	in := productSchema()
	r, err := p.Resolve(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Out.String(); got != "(Product.Did int, Product.name string)" {
		t.Errorf("output schema = %s", got)
	}
	if r.Idx[0] != in.IndexOf(Ref("Product", "Did")) || r.Idx[1] != in.IndexOf(Ref("Product", "name")) || r.Label != p.Label() {
		t.Errorf("resolution = %+v", r)
	}
	if again, _ := p.Resolve(productSchema()); again != r {
		t.Error("an equal input schema resolved anew")
	}
	fresh := productSchema().Concat(&Schema{})
	if n := testing.AllocsPerRun(100, func() { _, _ = p.Resolve(fresh) }); n != 0 {
		t.Errorf("resolving against equal columns allocates %.0f times", n)
	}
	rev := NewSchema(in.Columns[2], in.Columns[1], in.Columns[0])
	r2, err := p.Resolve(rev)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r || r2.Idx[0] != 0 || r2.Idx[1] != 1 {
		t.Errorf("reordered input resolved to %+v", r2.Idx)
	}
	if _, err := p.Resolve(divisionSchema()); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("missing column: %v", err)
	}
}

// TestLabelsRenderOncePerNode: σ, ⋈ and γ name their operator stats on
// every execution, so each node keeps its label: asked again, it returns
// the same string without allocating, and a node built afresh renders the
// same one.
func TestLabelsRenderOncePerNode(t *testing.T) {
	div, prod := NewScan("Division", divisionSchema()), NewScan("Product", productSchema())
	nodes := map[string]func() Node{
		`σ Division.city = "LA"`: func() Node { return NewSelect(div, Eq(Ref("Division", "city"), StringVal("LA"))) },
		"⋈ Division.Did = Product.Did": func() Node {
			return NewJoin(prod, div, []JoinCond{{Left: Ref("Product", "Did"), Right: Ref("Division", "Did")}})
		},
		"γ COUNT(*) AS n BY Division.city": func() Node {
			return NewAggregate(div, []ColumnRef{Ref("Division", "city")}, []Aggregation{{Func: AggCount, Alias: "n"}})
		},
	}
	for want, build := range nodes {
		n := build()
		if got := n.Label(); got != want || build().Label() != want {
			t.Errorf("label %q, want %q", got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = n.Label() }); allocs != 0 {
			t.Errorf("%s: Label allocates %.0f times once rendered", want, allocs)
		}
		// Query workers share plan nodes: first callers racing on a fresh
		// node all get the label.
		shared := build()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := shared.Label(); got != want {
					t.Errorf("a concurrent first Label returned %q, want %q", got, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestProjectResolveConcurrent: plan nodes are shared between query
// workers, so one π may be resolved from several goroutines at once against
// different inputs. Each caller must get the resolution of its own input,
// however the kept one is replaced beside it.
func TestProjectResolveConcurrent(t *testing.T) {
	p := NewProject(NewScan("Product", productSchema()), []ColumnRef{Ref("Product", "Did"), Ref("Product", "Pid")})
	fwd := productSchema()
	rev := NewSchema(fwd.Columns[2], fwd.Columns[1], fwd.Columns[0])
	want := map[*Schema][2]int{fwd: {2, 0}, rev: {0, 2}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		in := fwd
		if g%2 == 1 {
			in = rev
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r, err := p.Resolve(in)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[in]; r.Idx[0] != w[0] || r.Idx[1] != w[1] || r.Out.Columns[0].Name != "Did" {
					t.Errorf("resolved %v against its input, want %v", r.Idx, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestValidateMarksAcceptedPlans: a plan Validate accepted is not walked
// again — validating it a second time allocates nothing — and a plan it
// refused is refused on every call.
func TestValidateMarksAcceptedPlans(t *testing.T) {
	rel := NewSchema(
		Column{Relation: "R", Name: "a", Type: TypeInt},
		Column{Relation: "R", Name: "b", Type: TypeString},
	)
	good := NewProject(NewSelect(NewScan("R", rel), Eq(Ref("R", "b"), StringVal("x"))), []ColumnRef{Ref("R", "a")})
	if err := Validate(good); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := Validate(good); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validating an accepted plan again allocates %.0f times, want 0", n)
	}
	bad := NewSelect(NewScan("R", rel), Eq(Ref("R", "missing"), StringVal("x")))
	for i := 0; i < 3; i++ {
		if err := Validate(bad); err == nil {
			t.Fatalf("call %d: a selection over a missing column was accepted", i)
		}
	}
}
