package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
)

// The schema and the shape of the workload are fixed; see Generate for
// what the seed varies.
const (
	numDims     = 6
	numQueries  = 32
	factRows    = 100_000
	dimRows     = 5_000
	rowsPerBlk  = 10
	attrNDV     = 50
	attrPool    = 8 // filter literals v000..v007
	filterProb  = 0.6
	groupByProb = 0.3
	zipfS       = 1.1
	// templateSeed fixes which dimension roles each of the 32 queries joins,
	// filters and groups by; see Generate.
	templateSeed = 4
)

// ColSpec is one column of a generated table.
type ColSpec struct {
	Name string
	Type mvpp.Type
}

// TableSpec is one generated table with the statistics the cost model sees.
type TableSpec struct {
	Name       string
	Cols       []ColSpec
	Rows       float64
	Blocks     float64
	UpdateFreq float64
	NDV        map[string]float64
	IntRanges  map[string][2]int64
}

// QuerySpec is one generated workload query.
type QuerySpec struct {
	Name string
	SQL  string
	Freq float64
}

// Spec is everything the program under test receives. The seed itself never
// leaves the generator.
type Spec struct {
	Tables  []TableSpec
	Queries []QuerySpec
	// DataSeed drives the server's synthetic data generator.
	DataSeed int64
}

// String renders the spec canonically; the determinism test compares it
// byte for byte.
func (s *Spec) String() string {
	var b strings.Builder
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "table %s rows=%g blocks=%g fu=%g\n", t.Name, t.Rows, t.Blocks, t.UpdateFreq)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, "  %s type=%d ndv=%g", c.Name, c.Type, t.NDV[c.Name])
			if r, ok := t.IntRanges[c.Name]; ok {
				fmt.Fprintf(&b, " range=[%d,%d]", r[0], r[1])
			}
			b.WriteByte('\n')
		}
	}
	for _, q := range s.Queries {
		fmt.Fprintf(&b, "query %s fq=%.6f %s\n", q.Name, q.Freq, q.SQL)
	}
	return b.String()
}

func dimName(i int) string { return fmt.Sprintf("Dim%02d", i) }
func fkName(i int) string  { return fmt.Sprintf("fk%02d", i) }

// Generate builds the 6-dimension star and the seed's 32 queries.
//
// The query shapes come from a fixed template: each query joins 1–4 random
// dimension roles, filters one of them on attr = 'vNNN' with probability
// 0.6, and is a GROUP BY … SUM/COUNT with probability 0.3. The seed decides
// which dimension plays which role, which literal of the pool each filter
// uses, the data seed and (in NewZipf) the clients' draws. Every seed's
// workload is therefore the same up to renaming, and a metric's spread
// across seeds is the spread of the system, not of 32 random queries: with
// free shapes, design latency ranged 107–168 ms and read_cold throughput
// 13k–36k q/s from one seed to the next.
func Generate(seed int64) *Spec {
	s := &Spec{}
	fact := TableSpec{
		Name: "Fact", Rows: factRows, Blocks: factRows / rowsPerBlk, UpdateFreq: 1,
		Cols:      []ColSpec{{"id", mvpp.Int}},
		NDV:       map[string]float64{"id": factRows},
		IntRanges: map[string][2]int64{"measure": {1, 1000}},
	}
	for i := 0; i < numDims; i++ {
		fact.Cols = append(fact.Cols, ColSpec{fkName(i), mvpp.Int})
		fact.NDV[fkName(i)] = dimRows
	}
	// An integer measure keeps SUM exact, so an incrementally maintained
	// aggregate and its recomputation digest identically.
	fact.Cols = append(fact.Cols, ColSpec{"measure", mvpp.Int})
	s.Tables = append(s.Tables, fact)
	for i := 0; i < numDims; i++ {
		s.Tables = append(s.Tables, TableSpec{
			Name: dimName(i), Rows: dimRows, Blocks: dimRows / rowsPerBlk, UpdateFreq: 0.1,
			Cols: []ColSpec{{"id", mvpp.Int}, {"attr", mvpp.String}, {"name", mvpp.String}},
			// No distinct-value count for id: the data generator then keeps
			// it a dense key as the table grows, so a streamed dimension row
			// never duplicates a key and fans the joins out. Join
			// selectivity still comes from Fact.fkNN.
			NDV: map[string]float64{"attr": attrNDV, "name": dimRows / 10},
		})
	}

	shape := rand.New(rand.NewSource(templateSeed))
	r := rand.New(rand.NewSource(seed))
	dimOf := r.Perm(numDims)
	litOf := r.Perm(attrPool)
	s.DataSeed = r.Int63n(1 << 30)
	for q := 0; q < numQueries; q++ {
		roles := shape.Perm(numDims)[:1+shape.Intn(4)]
		sort.Ints(roles)
		from := []string{"Fact"}
		var where []string
		for _, role := range roles {
			d := dimOf[role]
			from = append(from, dimName(d))
			where = append(where, fmt.Sprintf("Fact.%s = %s.id", fkName(d), dimName(d)))
		}
		if shape.Float64() < filterProb {
			d := dimOf[roles[shape.Intn(len(roles))]]
			where = append(where, fmt.Sprintf("%s.attr = 'v%03d'", dimName(d), litOf[shape.Intn(attrPool)]))
		}
		var sql string
		if shape.Float64() < groupByProb {
			g := dimName(dimOf[roles[shape.Intn(len(roles))]]) + ".attr"
			sql = fmt.Sprintf("SELECT %s, SUM(measure) AS total, COUNT(*) AS n FROM %s WHERE %s GROUP BY %s",
				g, strings.Join(from, ", "), strings.Join(where, " AND "), g)
		} else {
			sql = fmt.Sprintf("SELECT Fact.id, measure, %s.name FROM %s WHERE %s",
				dimName(dimOf[roles[0]]), strings.Join(from, ", "), strings.Join(where, " AND "))
		}
		s.Queries = append(s.Queries, QuerySpec{
			Name: fmt.Sprintf("Q%02d", q+1),
			SQL:  sql,
			Freq: 50 / float64(q+1),
		})
	}
	return s
}

// PublicCatalog registers the spec through the public API.
func (s *Spec) PublicCatalog() (*mvpp.Catalog, error) {
	cat := mvpp.NewCatalog()
	for _, t := range s.Tables {
		cols := make([]mvpp.Column, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = mvpp.Column{Name: c.Name, Type: c.Type}
		}
		err := cat.AddTable(t.Name, cols, mvpp.TableStats{
			Rows: t.Rows, Blocks: t.Blocks, UpdateFrequency: t.UpdateFreq,
			DistinctValues: t.NDV, IntRanges: t.IntRanges,
		})
		if err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// InternalCatalog builds the same catalog directly in internal/catalog, for
// the traced layer-by-layer design run.
func (s *Spec) InternalCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, t := range s.Tables {
		cols := make([]algebra.Column, len(t.Cols))
		for i, c := range t.Cols {
			typ := algebra.TypeInt
			if c.Type == mvpp.String {
				typ = algebra.TypeString
			}
			cols[i] = algebra.Column{Relation: t.Name, Name: c.Name, Type: typ}
		}
		attrs := make(map[string]catalog.AttrStats)
		for col, ndv := range t.NDV {
			attrs[col] = catalog.AttrStats{DistinctValues: ndv}
		}
		for col, rg := range t.IntRanges {
			a := attrs[col]
			a.Min, a.Max = algebra.IntVal(rg[0]), algebra.IntVal(rg[1])
			attrs[col] = a
		}
		err := cat.AddRelation(&catalog.Relation{
			Name: t.Name, Schema: algebra.NewSchema(cols...),
			Rows: t.Rows, Blocks: t.Blocks, UpdateFrequency: t.UpdateFreq, Attrs: attrs,
		})
		if err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// designOptions are the design options every workload uses.
func designOptions() mvpp.Options {
	return mvpp.Options{Delta: &mvpp.DeltaOptions{DefaultFraction: 0.01}}
}

// NewDesigner registers the spec's catalog and queries through the public
// API — one design op's input handling, and every server's first step.
func (s *Spec) NewDesigner() (*mvpp.Designer, error) {
	cat, err := s.PublicCatalog()
	if err != nil {
		return nil, err
	}
	d := mvpp.NewDesigner(cat, designOptions())
	for _, q := range s.Queries {
		if err := d.AddQuery(q.Name, q.SQL, q.Freq); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Zipf draws query ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^zipfS. Rank i is
// Queries[i], whose design frequency 50/(i+1) follows the same order.
type Zipf struct {
	r   *rand.Rand
	cdf []float64
}

// NewZipf returns client's draw stream for the seed; streams of different
// clients are independent.
func NewZipf(seed int64, client, n int) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{r: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)), cdf: cdf}
}

// Next returns the next rank.
func (z *Zipf) Next() int {
	i := sort.SearchFloat64s(z.cdf, z.r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
