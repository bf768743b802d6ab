package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// The star warehouse of the repository benchmark (bench/gen.go), rebuilt
// inside the engine's tests: Fact(id, fk00..fk05, measure) at 100 000·scale
// rows and six Dim(id, attr, name) at 5 000·scale, ten rows per block, and
// the 22 views the designer selects for the benchmark's seed 1 — the shapes
// a maintenance epoch really meets: one fact ⋈ dimension subtree under many
// views, selections at every depth, π and γ roots.

const (
	starDims     = 6
	starFactRows = 100_000
	starDimRows  = 5_000
	starAttrNDV  = 50
)

func starDim(d int) string { return fmt.Sprintf("Dim%02d", d) }
func starFK(d int) string  { return fmt.Sprintf("fk%02d", d) }

// star builds view plans over the warehouse's schemas. Every call returns
// fresh nodes, so two views share structure, never node objects.
type star struct {
	fact *algebra.Schema
	dims [starDims]*algebra.Schema
}

func newStarSchemas() *star {
	s := &star{}
	cols := []algebra.Column{{Relation: "Fact", Name: "id", Type: algebra.TypeInt}}
	for d := 0; d < starDims; d++ {
		cols = append(cols, algebra.Column{Relation: "Fact", Name: starFK(d), Type: algebra.TypeInt})
		s.dims[d] = algebra.NewSchema(
			algebra.Column{Relation: starDim(d), Name: "id", Type: algebra.TypeInt},
			algebra.Column{Relation: starDim(d), Name: "attr", Type: algebra.TypeString},
			algebra.Column{Relation: starDim(d), Name: "name", Type: algebra.TypeString},
		)
	}
	cols = append(cols, algebra.Column{Relation: "Fact", Name: "measure", Type: algebra.TypeInt})
	s.fact = algebra.NewSchema(cols...)
	return s
}

// F scans the fact table, D a dimension.
func (s *star) F() algebra.Node      { return algebra.NewScan("Fact", s.fact) }
func (s *star) D(d int) algebra.Node { return algebra.NewScan(starDim(d), s.dims[d]) }

// J joins l and r on Dim<d>.id = Fact.fk<d>, whichever side holds which.
func (s *star) J(d int, l, r algebra.Node) algebra.Node {
	dim, fk := algebra.Ref(starDim(d), "id"), algebra.Ref("Fact", starFK(d))
	cond := algebra.JoinCond{Left: dim, Right: fk}
	if _, err := l.Schema().Resolve(dim); err != nil {
		cond = algebra.JoinCond{Left: fk, Right: dim}
	}
	return algebra.NewJoin(l, r, []algebra.JoinCond{cond})
}

// S filters on Dim<d>.attr = lit.
func (s *star) S(d int, lit string, in algebra.Node) algebra.Node {
	return algebra.NewSelect(in, algebra.Eq(algebra.Ref(starDim(d), "attr"), algebra.StringVal(lit)))
}

// P projects Dim<d>.name, Fact.id, Fact.measure.
func (s *star) P(d int, in algebra.Node) algebra.Node {
	return algebra.NewProject(in, []algebra.ColumnRef{
		algebra.Ref(starDim(d), "name"), algebra.Ref("Fact", "id"), algebra.Ref("Fact", "measure")})
}

// A groups by Dim<d>.attr under the given aggregate functions of
// Fact.measure (COUNT counts rows).
func (s *star) A(d int, in algebra.Node, funcs ...algebra.AggFunc) algebra.Node {
	aggs := make([]algebra.Aggregation, len(funcs))
	for i, f := range funcs {
		aggs[i] = algebra.Aggregation{Func: f, Alias: fmt.Sprintf("a%d", i)}
		if f != algebra.AggCount {
			aggs[i].Arg = algebra.Ref("Fact", "measure")
		}
	}
	return algebra.NewAggregate(in, []algebra.ColumnRef{algebra.Ref(starDim(d), "attr")}, aggs)
}

// starView is one named view plan.
type starView struct {
	name string
	plan algebra.Node
}

// benchViews is the benchmark's seed-1 design: 22 incrementally maintained
// views, named as the designer names them.
func (s *star) benchViews() []starView {
	cs := []algebra.AggFunc{algebra.AggCount, algebra.AggSum}
	return []starView{
		{"result1", s.P(5, s.J(5, s.D(5), s.F()))},
		{"tmp4", s.J(4, s.J(1, s.J(3, s.D(3), s.F()), s.D(1)), s.D(4))},
		{"tmp6", s.J(4, s.D(4), s.F())},
		{"tmp8", s.J(4, s.J(0, s.D(0), s.J(3, s.D(3), s.F())), s.D(4))},
		{"result5", s.P(4, s.S(4, "v003", s.J(4, s.D(4), s.F())))},
		{"tmp12", s.J(1, s.J(4, s.D(4), s.J(5, s.D(5), s.F())), s.D(1))},
		{"tmp14", s.J(1, s.J(5, s.D(5), s.F()), s.D(1))},
		{"result8", s.A(3, s.J(3, s.D(3), s.F()), cs...)},
		{"tmp18", s.J(5, s.J(0, s.D(0), s.J(3, s.D(3), s.F())), s.D(5))},
		{"tmp22", s.J(2, s.J(3, s.D(3), s.J(4, s.D(4), s.J(5, s.D(5), s.F()))), s.D(2))},
		{"result13", s.P(5, s.J(2, s.J(0, s.D(0), s.S(1, "v000", s.J(1, s.J(5, s.D(5), s.F()), s.D(1)))), s.D(2)))},
		{"result14", s.P(5, s.J(5, s.J(2, s.J(1, s.J(3, s.D(3), s.F()), s.D(1)), s.S(2, "v001", s.D(2))), s.D(5)))},
		{"result15", s.A(3, s.J(3, s.S(3, "v007", s.D(3)), s.J(5, s.D(5), s.F())), cs...)},
		{"tmp33", s.J(1, s.D(1), s.F())},
		{"result18", s.P(2, s.J(2, s.S(3, "v000", s.J(3, s.D(3), s.F())), s.D(2)))},
		{"result19", s.P(4, s.J(4, s.S(4, "v001", s.D(4)), s.J(3, s.D(3), s.F())))},
		{"result20", s.P(5, s.J(0, s.S(5, "v004", s.J(5, s.D(5), s.F())), s.D(0)))},
		{"tmp41", s.J(0, s.D(0), s.F())},
		{"result23", s.A(0, s.J(0, s.S(0, "v007", s.D(0)), s.J(4, s.D(4), s.F())), cs...)},
		{"result27", s.A(3, s.S(3, "v003", s.J(3, s.D(3), s.F())), cs...)},
		{"result31", s.P(0, s.J(0, s.D(0), s.F()))},
		{"result32", s.P(2, s.J(2, s.D(2), s.F()))},
	}
}

// starRows generates warehouse rows: the initial load and every later delta
// come from one instance, so fact and dimension ids keep extending densely
// and a new fact row may reference a dimension row of the same batch.
type starRows struct {
	r        *rand.Rand
	factRows int
	dimRows  [starDims]int
}

func (g *starRows) fact(n int) [][]algebra.Value {
	rows := make([][]algebra.Value, n)
	for i := range rows {
		row := []algebra.Value{algebra.IntVal(int64(g.factRows))}
		for d := 0; d < starDims; d++ {
			row = append(row, algebra.IntVal(g.r.Int63n(int64(g.dimRows[d]))))
		}
		rows[i] = append(row, algebra.IntVal(1+g.r.Int63n(1000)))
		g.factRows++
	}
	return rows
}

func (g *starRows) dim(d, n int) [][]algebra.Value {
	rows := make([][]algebra.Value, n)
	for i := range rows {
		rows[i] = []algebra.Value{
			algebra.IntVal(int64(g.dimRows[d])),
			algebra.StringVal(fmt.Sprintf("v%03d", g.r.Intn(starAttrNDV))),
			algebra.StringVal(fmt.Sprintf("n%d", g.r.Intn(starDimRows/10))),
		}
		g.dimRows[d]++
	}
	return rows
}

// starLoad is the initial contents of the seven tables at one scale.
func starLoad(scale float64, seed int64) (*starRows, map[string][][]algebra.Value) {
	g := &starRows{r: rand.New(rand.NewSource(seed))}
	load := make(map[string][][]algebra.Value, 1+starDims)
	// Dimensions first: fact rows draw their keys from the loaded ids.
	for d := 0; d < starDims; d++ {
		load[starDim(d)] = g.dim(d, max(1, int(starDimRows*scale)))
	}
	load["Fact"] = g.fact(max(1, int(starFactRows*scale)))
	return g, load
}

// newStarDB creates the seven tables with load and materializes views.
func newStarDB(tb testing.TB, s *star, load map[string][][]algebra.Value, views []starView) *engine.DB {
	tb.Helper()
	db := engine.NewDB(10)
	create := func(name string, schema *algebra.Schema) {
		t, err := db.CreateTable(name, schema)
		if err != nil {
			tb.Fatal(err)
		}
		if err := t.Insert(load[name]...); err != nil {
			tb.Fatal(err)
		}
	}
	create("Fact", s.fact)
	for d := 0; d < starDims; d++ {
		create(starDim(d), s.dims[d])
	}
	for _, v := range views {
		if _, err := db.Materialize(v.name, v.plan); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}
