package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/obs"
)

// QueryPlan pairs a query with its individually optimal plan — the inputs
// of the multiple-MVPP generation algorithm (paper Figure 4, step 1).
type QueryPlan struct {
	Name string
	Freq float64
	Plan algebra.Node
}

// GenOptions configures MVPP generation; the zero value follows the paper.
type GenOptions struct {
	// MaxRotations limits how many seed rotations are generated; 0 means
	// all k (paper step 4.5 rotates each plan to the front once).
	MaxRotations int
	// PushDisjunctions additionally pushes the disjunction of the queries'
	// differing leaf-local selections onto shared scans (paper step 5's
	// general case). Each query still re-applies its own selection above
	// the shared subplan, preserving semantics.
	PushDisjunctions bool
	// PushProjections inserts projections above leaves keeping the union of
	// the attributes any query needs plus join attributes (paper step 6).
	PushProjections bool
	// NoPushdown skips steps 5–6 entirely, yielding MVPPs in the
	// selections-above-joins form of the paper's Figure 7 — an ablation
	// knob.
	NoPushdown bool
	// Delta, when non-nil, installs delta-propagation maintenance pricing
	// on every candidate before view selection: each vertex's Cm becomes
	// min(recompute, incremental) under these per-relation delta fractions.
	Delta *cost.DeltaSpec
	// Select configures the view-selection heuristic run on each candidate.
	Select SelectOptions
	// Obs receives the generation span, one child span per rotation,
	// per-candidate events with their selected costs, and the merge/
	// candidate counters. Nil disables instrumentation.
	Obs obs.Observer
}

// Candidate is one generated MVPP with its heuristic materialization choice.
type Candidate struct {
	MVPP *MVPP
	// Selection is the Figure 9 heuristic's result on this MVPP.
	Selection *SelectionResult
	// SeedOrder is the query merge order that produced the MVPP.
	SeedOrder []string
	// Signature identifies the MVPP's vertex structure among the candidates
	// of one Generate call; rotations that produce identical DAGs share a
	// signature.
	Signature string
}

// prepared is a query plan with its pushed-up decomposition, its merge rank
// and the facts about its join skeleton the rotations share, all in the
// arena's interned IDs.
type prepared struct {
	QueryPlan
	dec  *algebra.Decomposed
	rank float64 // fq · Ca

	index  int            // position in the ranked order
	tree   algebra.ExprID // the join skeleton
	leaves algebra.Bits
	// pos maps a relation ID to its left-to-right position in the skeleton
	// (MaxInt outside it), scans to its scan expression.
	pos   []int
	scans []algebra.ExprID
	conds []planCond // the skeleton's join conditions, in plan order
	// residual holds the selection conjuncts steps 5–6 left to the query.
	residual []conjunct
}

// planCond is one join condition of a plan: its canonical ID and the
// relations its two sides belong to.
type planCond struct {
	cond        algebra.JoinCond
	id          int
	left, right int
}

// conjunct is one interned selection conjunct with the relations it reads.
type conjunct struct {
	id   int32
	rels algebra.Bits
}

// generator is the state of one Generate call shared by its rotations: the
// estimator's arena, the per-expression prices, the prepared plans and the
// outcome of the (rotation-independent) leaf push-down. The rotation loop
// runs on one goroutine; only a finished DAG is handed to a worker.
type generator struct {
	opts  GenOptions
	arena *algebra.Arena
	p     *pricer
	prep  []prepared
	lay   layout

	// The dedup keys of the rotations built so far (see buildRotation).
	seenSkeletons, seenSignatures map[string]bool

	leafRepl []algebra.ExprID // relation ID → the subplan replacing its scan
	replaced []algebra.ExprID // skeleton expression → its form over leafRepl, +1
	valid    []bool           // expression already validated
	// usage counts, per rotation, how many queries' skeletons contain each
	// structural class (see countUsage).
	usage struct {
		count, query []int32
		stamp        []uint32
		epoch        uint32
	}
}

// Generate runs the Figure 4 algorithm: normalize each optimal plan to a
// join skeleton (push selections/projections up), order plans by descending
// fq·Ca, merge them into a shared DAG seeded by each rotation of that order,
// push common selections and projections back down, and return one evaluated
// candidate per distinct resulting MVPP.
//
// All rotations build into the estimator's one expression arena, so an
// expression is keyed, sized and priced once per call however many
// rotations contain it; what a rotation still does itself is the merge, the
// residual placement, its vertex list and Figure 9.
func Generate(est *cost.Estimator, model cost.Model, plans []QueryPlan, opts GenOptions) ([]*Candidate, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: no query plans to generate MVPPs from")
	}
	gsp := obs.Start(opts.Obs, "generate", obs.Int("queries", int64(len(plans))))
	defer obs.End(gsp)
	genObs := obs.From(gsp)

	g := &generator{opts: opts, arena: est.Arena(), p: newPricer(est, model, opts.Delta),
		seenSkeletons: make(map[string]bool), seenSignatures: make(map[string]bool)}
	g.lay.arena = g.arena
	if err := g.prepare(est, model, plans); err != nil {
		return nil, err
	}
	k := len(g.prep)
	rotations := k
	if opts.MaxRotations > 0 && opts.MaxRotations < k {
		rotations = opts.MaxRotations
	}

	// Step 4.5: one rotation per seed. The loop below merges, assembles and
	// lays out each rotation in turn — cheap once identity is an integer,
	// and sequential so that IDs, representatives and prices do not depend
	// on scheduling — and drops a rotation as soon as it repeats an earlier
	// one. Survivors go to a worker for the DAG-wide annotations and
	// Figure 9, which touch only the rotation's own memory.
	type rotation struct {
		cand *Candidate // nil: dropped as a duplicate
		seed []string
		span obs.Span
		err  error
	}
	rots := make([]rotation, rotations)
	work := make(chan *rotation)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), rotations); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rot := range work {
				ro := obs.From(rot.span)
				m := rot.cand.MVPP
				m.annotate()
				if err := m.Validate(); err != nil {
					rot.err = fmt.Errorf("core: generated MVPP invalid: %w", err)
				} else {
					m.SetObserver(ro)
					sel := opts.Select
					sel.Obs = ro
					rot.cand.Selection = m.SelectViews(model, sel)
				}
				obs.End(rot.span)
			}
		}()
	}
	var err error
	for r := range rots {
		rot := &rots[r]
		order := make([]*prepared, k)
		rot.seed = make([]string, k)
		for i := range order {
			order[i] = &g.prep[(r+i)%k]
			rot.seed[i] = order[i].Name
		}
		rot.span = obs.Start(genObs, "rotation", obs.Int("rotation", int64(r)),
			obs.String("seed", rot.seed[0]))
		rot.cand, err = g.buildRotation(order, obs.From(rot.span))
		if err != nil {
			obs.End(rot.span)
			break
		}
		if rot.cand == nil {
			obs.End(rot.span)
			continue
		}
		rot.cand.SeedOrder = rot.seed
		work <- rot
	}
	close(work)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Report in rotation order.
	candidates := obs.CounterOf(genObs, obs.CtrCandidates)
	var out []*Candidate
	for r := range rots {
		rot := &rots[r]
		if rot.err != nil {
			return nil, rot.err
		}
		c := rot.cand
		if c == nil {
			obs.Emit(genObs, obs.EvCandidateDedup,
				obs.Int("rotation", int64(r)),
				obs.String("seed_order", strings.Join(rot.seed, ",")))
			continue
		}
		candidates.Add(1)
		obs.Emit(genObs, obs.EvCandidate,
			obs.Int("rotation", int64(r)),
			obs.String("seed_order", strings.Join(c.SeedOrder, ",")),
			obs.Int("vertices", int64(len(c.MVPP.Vertices))),
			obs.Int("views", int64(len(c.Selection.Materialized))),
			obs.Float("query_cost", c.Selection.Costs.Query),
			obs.Float("maintenance_cost", c.Selection.Costs.Maintenance),
			obs.Float("total", c.Selection.Costs.Total))
		out = append(out, c)
	}
	return out, nil
}

// prepare validates, decomposes, ranks and interns the plans (Figure 4
// steps 1–3) and runs the leaf push-down of steps 5–6, which depends only
// on which queries read which relation and is therefore the same for every
// rotation.
func (g *generator) prepare(est *cost.Estimator, model cost.Model, plans []QueryPlan) error {
	g.prep = make([]prepared, len(plans))
	for i, qp := range plans {
		if err := algebra.Validate(qp.Plan); err != nil {
			return fmt.Errorf("core: query %s: %w", qp.Name, err)
		}
		dec, err := algebra.Decompose(qp.Plan)
		if err != nil {
			return fmt.Errorf("core: query %s: %w", qp.Name, err)
		}
		ca, err := est.PlanCost(model, qp.Plan)
		if err != nil {
			return fmt.Errorf("core: query %s: %w", qp.Name, err)
		}
		g.prep[i] = prepared{QueryPlan: qp, dec: dec, rank: qp.Freq * ca}
	}
	// Step 3: descending fq·Ca.
	sort.SliceStable(g.prep, func(i, j int) bool { return g.prep[i].rank > g.prep[j].rank })

	residual := g.planPushdown()
	for i := range g.prep {
		p := &g.prep[i]
		p.index = i
		p.tree = g.arena.Intern(p.dec.JoinTree)
		p.leaves = g.arena.Expr(p.tree).Leaves
		schema := p.dec.JoinTree.Schema()
		relOf := func(ref algebra.ColumnRef) int {
			if c := schema.IndexOf(ref); c >= 0 {
				return g.arena.Rel(schema.Columns[c].Relation)
			}
			return g.arena.Rel("\x00unresolved") // in no leaf set
		}
		next := 0
		algebra.Walk(p.dec.JoinTree, func(n algebra.Node) {
			switch v := n.(type) {
			case *algebra.Scan:
				rel := g.arena.Rel(v.Relation)
				for rel >= len(p.pos) {
					p.pos = append(p.pos, math.MaxInt)
					p.scans = append(p.scans, algebra.NoExpr)
				}
				if p.pos[rel] == math.MaxInt {
					p.pos[rel] = next
					p.scans[rel] = g.arena.Intern(v)
					next++
				}
			case *algebra.Join:
				for _, c := range v.On {
					p.conds = append(p.conds, planCond{cond: c, id: g.arena.Cond(c),
						left: relOf(c.Left), right: relOf(c.Right)})
				}
			}
		})
		for _, pred := range residual[i] {
			for _, c := range algebra.Conjuncts(algebra.NewAnd(pred)) {
				conj := conjunct{id: g.arena.Conjuncts(c)[0]} // c is a single conjunct
				for _, ref := range c.Columns() {
					conj.rels.Set(relOf(ref))
				}
				p.residual = append(p.residual, conj)
			}
		}
	}
	return nil
}

// buildRotation produces one rotation's candidate up to, but not including,
// the DAG-wide annotations and view selection: merge skeletons in order
// (step 4), place the residual selections and assemble the plans, lay out
// and price the DAG. It returns nil when the rotation repeats an earlier
// one — decided on the merged skeletons when they already coincide, else on
// the vertex structure. ro is the rotation's observer (nil when
// instrumentation is off).
func (g *generator) buildRotation(order []*prepared, ro obs.Observer) (*Candidate, error) {
	merges := obs.CounterOf(ro, obs.CtrMergeAttempts)
	sm := skeletonMerger{arena: g.arena, inPool: make(map[algebra.StructID]bool)}
	skeletons := make([]algebra.ExprID, len(order))
	for i, p := range order {
		merges.Add(1)
		skel, err := sm.merge(p)
		if err != nil {
			return nil, fmt.Errorf("core: query %s: %w", p.Name, err)
		}
		skeletons[i] = skel
	}
	// Equal skeleton classes query by query give equal DAGs: drop the
	// rotation before push-down, build and selection.
	byQuery := make([]int, len(order))
	for i, p := range order {
		byQuery[p.index] = int(g.arena.Expr(skeletons[i]).Struct)
	}
	key := encodeIDs(byQuery)
	if g.seenSkeletons[key] {
		return nil, nil
	}
	g.seenSkeletons[key] = true

	finals, err := g.assemblePlans(order, skeletons)
	if err != nil {
		return nil, err
	}
	g.lay.reset()
	queries := make([]dagQuery, len(order))
	for i, p := range order {
		queries[i] = dagQuery{name: p.Name, freq: p.Freq, root: g.lay.add(finals[i])}
	}
	// The criterion proper: rotations whose DAGs have the same vertex
	// structure are one candidate.
	sig := g.lay.signature()
	if g.seenSignatures[sig] {
		return nil, nil
	}
	g.seenSignatures[sig] = true
	m, err := newMVPP(g.p, &g.lay, queries)
	if err != nil {
		return nil, err
	}
	return &Candidate{MVPP: m, Signature: sig}, nil
}

// Best returns the candidate whose selected design has the lowest total
// cost (paper: "compare the total cost of each MVPP, and select the one
// with the lowest cost").
func Best(cands []*Candidate) *Candidate {
	var best *Candidate
	for _, c := range cands {
		if best == nil || c.Selection.Costs.Total < best.Selection.Costs.Total {
			best = c
		}
	}
	return best
}

// --- Step 4: merging join skeletons ------------------------------------

// poolEntry is a reusable join pattern already present in the growing MVPP.
type poolEntry struct {
	expr   algebra.ExprID
	leaves algebra.Bits // its base relations
	conds  algebra.Bits // its internal join conditions
	n      int          // len(leaves)
}

// piece is one operand of a skeleton being joined up: a pooled pattern or a
// single scan, with its relations and the plan position of its first leaf.
type piece struct {
	expr   algebra.ExprID
	leaves algebra.Bits
	first  int
}

// firstPos returns the smallest plan position among the relations.
func (p *prepared) firstPos(rels algebra.Bits) int {
	first := math.MaxInt
	for rel := rels.Next(0); rel >= 0; rel = rels.Next(rel + 1) {
		if rel < len(p.pos) && p.pos[rel] < first {
			first = p.pos[rel]
		}
	}
	return first
}

// skeletonMerger carries the pattern pool across the plans of one rotation
// (Figure 4 step 4: each plan reuses the largest existing join patterns
// compatible with its own conditions and contributes its new join nodes to
// the pool). The pool is kept in probing order: patterns over more
// relations first, older before newer.
type skeletonMerger struct {
	arena  *algebra.Arena
	pool   []poolEntry
	inPool map[algebra.StructID]bool
	on     []algebra.JoinCond // scratch
}

// register adds every join subtree of a skeleton to the pool.
func (sm *skeletonMerger) register(id algebra.ExprID) {
	x := sm.arena.Expr(id)
	if x.Op != algebra.OpJoin || sm.inPool[x.Struct] {
		// A pooled pattern's operands were pooled with it.
		return
	}
	sm.register(x.Left)
	sm.register(x.Right)
	sm.inPool[x.Struct] = true
	e := poolEntry{expr: id, leaves: x.Leaves, conds: x.Conds, n: x.Leaves.Count()}
	at := len(sm.pool)
	for at > 0 && sm.pool[at-1].n < e.n {
		at--
	}
	sm.pool = append(sm.pool, poolEntry{})
	copy(sm.pool[at+1:], sm.pool[at:])
	sm.pool[at] = e
}

// merge incorporates one plan's join skeleton, reusing pooled patterns, and
// returns the plan's (possibly rewritten) skeleton root.
func (sm *skeletonMerger) merge(p *prepared) (algebra.ExprID, error) {
	if p.leaves.Count() == 1 {
		// Single-relation query: the scan is shared by identity.
		return p.tree, nil
	}
	remaining := append(algebra.Bits(nil), p.leaves...)

	// Step 4.3.1: choose maximal reusable patterns. A pooled pattern is
	// compatible when its leaves are all unclaimed leaves of this plan and
	// its internal conditions are exactly this plan's conditions restricted
	// to those leaves.
	var pieces []piece
	var within algebra.Bits
	for _, e := range sm.pool {
		if !e.leaves.SubsetOf(remaining) {
			continue
		}
		clear(within)
		for _, c := range p.conds {
			if e.leaves.Has(c.left) && e.leaves.Has(c.right) {
				within.Set(c.id)
			}
		}
		if !within.Equal(e.conds) {
			continue
		}
		pieces = append(pieces, piece{e.expr, e.leaves, p.firstPos(e.leaves)})
		for i := range remaining {
			if i < len(e.leaves) {
				remaining[i] &^= e.leaves[i]
			}
		}
	}
	// Singleton leaves for whatever is left.
	for rel := remaining.Next(0); rel >= 0; rel = remaining.Next(rel + 1) {
		pieces = append(pieces, piece{p.scans[rel], sm.arena.Expr(p.scans[rel]).Leaves, p.pos[rel]})
	}

	// Step 4.3.2: join the pieces, preserving the source plan's leaf order
	// (pieces are ordered by their first leaf's position in the plan).
	for i := 1; i < len(pieces); i++ { // insertion sort: a handful of pieces
		for j := i; j > 0 && pieces[j].first < pieces[j-1].first; j-- {
			pieces[j], pieces[j-1] = pieces[j-1], pieces[j]
		}
	}
	acc, accLeaves := pieces[0].expr, pieces[0].leaves
	pending := pieces[1:]
	for len(pending) > 0 {
		progressed := false
		for i, next := range pending {
			if !sm.connecting(accLeaves, next.leaves, p.conds) {
				continue
			}
			acc = sm.arena.Join(acc, next.expr, sm.on)
			accLeaves = accLeaves.Union(next.leaves)
			pending = append(pending[:i], pending[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return algebra.NoExpr, fmt.Errorf("core: join graph disconnected while merging skeleton")
		}
	}
	sm.register(acc)
	return acc, nil
}

// connecting collects into sm.on the plan conditions linking the two
// pieces, oriented left-side-first, and reports whether there are any.
func (sm *skeletonMerger) connecting(left, right algebra.Bits, conds []planCond) bool {
	sm.on = sm.on[:0]
	for _, c := range conds {
		switch {
		case left.Has(c.left) && right.Has(c.right):
			sm.on = append(sm.on, c.cond)
		case left.Has(c.right) && right.Has(c.left):
			sm.on = append(sm.on, algebra.JoinCond{Left: c.cond.Right, Right: c.cond.Left})
		}
	}
	return len(sm.on) > 0
}
