package core

import (
	"fmt"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// planPushdown runs Figure 4 steps 5–6 once for all rotations and returns
// each query's residual conjuncts (by position in g.prep).
//
// Step 5 (selections): for each base relation, the conjuncts that every
// query using the relation applies identically are pushed onto the shared
// scan; with PushDisjunctions, the disjunction of the queries' differing
// leaf-local restrictions is additionally pushed (each query re-applies its
// own restriction above, preserving semantics — the disjunctive filter
// shrinks the shared intermediate results).
//
// Step 6 (projections): with PushProjections, a projection keeping the
// union of the attributes any query needs — output attributes, join
// attributes, and attributes of still-unpushed selections — is inserted
// above each (possibly filtered) scan.
//
// Which conjuncts are common, what is pushed and what each query keeps
// depend only on which queries read which relation, not on how a rotation
// merged their joins — so the work is hoisted out of the rotation loop.
func (g *generator) planPushdown() [][]algebra.Predicate {
	decs := make([]*algebra.Decomposed, len(g.prep))
	trees := make([]algebra.Node, len(g.prep))
	residual := make([][]algebra.Predicate, len(g.prep))
	for i := range g.prep {
		decs[i], trees[i] = g.prep[i].dec, g.prep[i].dec.JoinTree
		residual[i] = append(residual[i], decs[i].Selections...)
	}
	if !g.opts.NoPushdown {
		for rel, repl := range planLeafPushdown(decs, trees, residual, g.opts) {
			id := g.arena.Rel(rel)
			for id >= len(g.leafRepl) {
				g.leafRepl = append(g.leafRepl, algebra.NoExpr)
			}
			g.leafRepl[id] = g.arena.Intern(repl)
		}
	}
	return residual
}

// assemblePlans turns one rotation's merged skeletons into the queries'
// final plans: the hoisted leaf replacement is applied, then the remaining
// per-query conjuncts are placed as deep as possible without crossing into
// a subtree shared with a query that lacks the conjunct — a private filter
// wraps the highest shared vertex it would otherwise have to enter. This is
// exactly the shape of the paper's Figure 3, where σ date>7/1/96 (tmp5)
// sits above the shared Order⋈Customer (tmp4) rather than on the Order
// scan.
func (g *generator) assemblePlans(order []*prepared, skeletons []algebra.ExprID) ([]algebra.ExprID, error) {
	if !g.opts.NoPushdown {
		for i := range skeletons {
			skeletons[i] = g.replaceLeaves(skeletons[i])
		}
		g.countUsage(skeletons)
	}
	out := make([]algebra.ExprID, len(order))
	for i, p := range order {
		plan := skeletons[i]
		if g.opts.NoPushdown {
			// Figure 7 form: all selections in one block above the joins.
			if len(p.residual) > 0 {
				plan = g.arena.Select(plan, conjunctIDs(p.residual))
			}
		} else {
			plan = g.placeResiduals(plan, p.residual)
		}
		switch d := p.dec; {
		case d.TopAgg != nil:
			plan = g.arena.Aggregate(plan, d.TopAgg.GroupBy, d.TopAgg.Aggs)
		case d.Output != nil:
			plan = g.arena.Project(plan, d.Output)
		}
		if err := g.validate(plan); err != nil {
			return nil, fmt.Errorf("core: assembled plan invalid: %w", err)
		}
		out[i] = plan
	}
	return out, nil
}

func conjunctIDs(preds []conjunct) []int32 {
	ids := make([]int32, len(preds))
	for i, p := range preds {
		ids[i] = p.id
	}
	return ids
}

// replaceLeaves returns the skeleton with every scan replaced by the
// relation's pushed-down subplan. The replacement is the same in every
// rotation, so results are remembered per expression.
func (g *generator) replaceLeaves(id algebra.ExprID) algebra.ExprID {
	for int(id) >= len(g.replaced) {
		g.replaced = append(g.replaced, 0)
	}
	if r := g.replaced[id]; r != 0 {
		return r - 1
	}
	out := id
	switch x := g.arena.Expr(id); x.Op {
	case algebra.OpScan:
		if rel := x.Leaves.Next(0); rel < len(g.leafRepl) && g.leafRepl[rel] != algebra.NoExpr {
			out = g.leafRepl[rel]
		}
	case algebra.OpJoin:
		out = g.arena.WithChildren(id, g.replaceLeaves(x.Left), g.replaceLeaves(x.Right))
	}
	g.replaced[id] = out + 1
	return out
}

// countUsage counts, for the current rotation, how many queries' skeletons
// contain each structural class. A class used by two or more queries is a
// sharing boundary for private filters.
func (g *generator) countUsage(skeletons []algebra.ExprID) {
	u := &g.usage
	u.epoch++
	var walk func(id algebra.ExprID, query int32)
	walk = func(id algebra.ExprID, query int32) {
		x := g.arena.Expr(id)
		c := int(x.Struct)
		for c >= len(u.stamp) {
			u.stamp, u.count, u.query = append(u.stamp, 0), append(u.count, 0), append(u.query, 0)
		}
		if u.stamp[c] != u.epoch {
			u.stamp[c], u.count[c], u.query[c] = u.epoch, 0, -1
		}
		if u.query[c] != query {
			u.query[c] = query
			u.count[c]++
		}
		for _, child := range []algebra.ExprID{x.Left, x.Right} {
			if child != algebra.NoExpr {
				walk(child, query)
			}
		}
	}
	for i, skel := range skeletons {
		walk(skel, int32(i))
	}
}

func (g *generator) shared(c algebra.StructID) bool {
	u := &g.usage
	return int(c) < len(u.stamp) && u.stamp[c] == u.epoch && u.count[c] >= 2
}

// placeResiduals sinks a query's remaining conjuncts as deep as possible,
// wrapping (rather than entering) subtrees shared with other queries.
func (g *generator) placeResiduals(id algebra.ExprID, preds []conjunct) algebra.ExprID {
	if len(preds) == 0 {
		return id
	}
	x := g.arena.Expr(id)
	if x.Op != algebra.OpJoin || g.shared(x.Struct) {
		return g.arena.Select(id, conjunctIDs(preds))
	}
	ls, rs := g.arena.Expr(x.Left).Leaves, g.arena.Expr(x.Right).Leaves
	var left, right, here []conjunct
	for _, p := range preds {
		switch {
		case p.rels.SubsetOf(ls):
			left = append(left, p)
		case p.rels.SubsetOf(rs):
			right = append(right, p)
		default:
			here = append(here, p)
		}
	}
	out := g.arena.WithChildren(id, g.placeResiduals(x.Left, left), g.placeResiduals(x.Right, right))
	if len(here) > 0 {
		out = g.arena.Select(out, conjunctIDs(here))
	}
	return out
}

// validate checks every expression of the plan that has not been checked
// yet, inputs first — each distinct expression once per Generate.
func (g *generator) validate(id algebra.ExprID) error {
	for int(id) >= len(g.valid) {
		g.valid = append(g.valid, false)
	}
	if g.valid[id] {
		return nil
	}
	x := g.arena.Expr(id)
	for _, child := range []algebra.ExprID{x.Left, x.Right} {
		if child != algebra.NoExpr {
			if err := g.validate(child); err != nil {
				return err
			}
		}
	}
	if err := algebra.ValidateOp(x.Node); err != nil {
		return err
	}
	g.valid[id] = true
	return nil
}

// planLeafPushdown computes, per relation, the subplan replacing its scan,
// and removes pushed conjuncts from the queries' residual lists (which it
// mutates).
func planLeafPushdown(decs []*algebra.Decomposed, skeletons []algebra.Node, residual [][]algebra.Predicate, opts GenOptions) map[string]algebra.Node {
	// users[R] = query indexes whose skeleton reads R.
	users := make(map[string][]int)
	for i, skel := range skeletons {
		for _, rel := range algebra.Leaves(skel) {
			users[rel] = append(users[rel], i)
		}
	}
	rels := make([]string, 0, len(users))
	for rel := range users {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	leafRepl := make(map[string]algebra.Node, len(rels))
	for _, rel := range rels {
		scan := findScan(skeletons[users[rel][0]], rel)
		schema := scan.Schema()

		// Leaf-local conjuncts per user.
		local := make(map[int][]algebra.Predicate)
		for _, qi := range users[rel] {
			for _, p := range residual[qi] {
				if algebra.ResolvesAll(schema, p) {
					local[qi] = append(local[qi], p)
				}
			}
		}

		// Common part: conjuncts every user applies (by canonical form).
		counts := make(map[string]int)
		byKey := make(map[string]algebra.Predicate)
		for _, qi := range users[rel] {
			seen := make(map[string]bool)
			for _, p := range local[qi] {
				key := p.String()
				if !seen[key] {
					seen[key] = true
					counts[key]++
					byKey[key] = p
				}
			}
		}
		var common []algebra.Predicate
		commonKeys := make(map[string]bool)
		for key, n := range counts {
			if n == len(users[rel]) {
				common = append(common, byKey[key])
				commonKeys[key] = true
			}
		}
		sort.Slice(common, func(i, j int) bool { return common[i].String() < common[j].String() })

		// Remove pushed conjuncts from residual lists.
		for _, qi := range users[rel] {
			var kept []algebra.Predicate
			for _, p := range residual[qi] {
				if algebra.ResolvesAll(schema, p) && commonKeys[p.String()] {
					continue
				}
				kept = append(kept, p)
			}
			residual[qi] = kept
		}

		pushed := algebra.NewAnd(common...)

		// Disjunctive pushdown of the differing parts (step 5's general
		// case). Sound only when every user restricts the relation; each
		// user keeps its own restriction above.
		if opts.PushDisjunctions && len(users[rel]) >= 2 {
			var perUser []algebra.Predicate
			all := true
			for _, qi := range users[rel] {
				var rest []algebra.Predicate
				for _, p := range local[qi] {
					if !commonKeys[p.String()] {
						rest = append(rest, p)
					}
				}
				if len(rest) == 0 {
					all = false
					break
				}
				perUser = append(perUser, algebra.NewAnd(rest...))
			}
			if all {
				if dis := algebra.Disjoin(perUser); dis != nil {
					pushed = algebra.NewAnd(pushed, dis)
				}
			}
		}

		var repl algebra.Node = scan
		if pushed != nil {
			repl = algebra.NewSelect(repl, pushed)
		}

		if opts.PushProjections {
			need := neededColumns(rel, schema, users[rel], decs, skeletons, residual)
			if len(need) > 0 && len(need) < schema.Len() {
				repl = algebra.NewProject(repl, need)
			}
		}
		if _, isScan := repl.(*algebra.Scan); !isScan {
			leafRepl[rel] = repl
		}
	}
	return leafRepl
}

// neededColumns computes the union over users of the attributes of rel they
// still need above the leaf: output attributes, join attributes, and
// attributes of unpushed selections (paper step 6).
func neededColumns(rel string, schema *algebra.Schema, userIdx []int, decs []*algebra.Decomposed, skeletons []algebra.Node, residual [][]algebra.Predicate) []algebra.ColumnRef {
	needed := make(map[int]bool)
	addRef := func(ref algebra.ColumnRef) {
		if i := schema.IndexOf(ref); i >= 0 && (ref.Relation == rel || ref.Relation == "") {
			needed[i] = true
		}
	}
	for _, qi := range userIdx {
		for _, ref := range decs[qi].Output {
			addRef(ref)
		}
		if decs[qi].TopAgg != nil {
			for _, ref := range decs[qi].TopAgg.RequiredByAggregate() {
				addRef(ref)
			}
		}
		for _, c := range treeJoinConds(skeletons[qi]) {
			addRef(c.Left)
			addRef(c.Right)
		}
		for _, p := range residual[qi] {
			for _, ref := range p.Columns() {
				addRef(ref)
			}
		}
	}
	idx := make([]int, 0, len(needed))
	for i := range needed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]algebra.ColumnRef, len(idx))
	for i, j := range idx {
		c := schema.Columns[j]
		out[i] = algebra.ColumnRef{Relation: c.Relation, Name: c.Name}
	}
	return out
}

// treeJoinConds collects every join condition of a join tree.
func treeJoinConds(n algebra.Node) []algebra.JoinCond {
	var out []algebra.JoinCond
	algebra.Walk(n, func(m algebra.Node) {
		if j, ok := m.(*algebra.Join); ok {
			out = append(out, j.On...)
		}
	})
	return out
}

func findScan(n algebra.Node, relation string) algebra.Node {
	var out algebra.Node
	algebra.Walk(n, func(m algebra.Node) {
		if s, ok := m.(*algebra.Scan); ok && s.Relation == relation && out == nil {
			out = s
		}
	})
	return out
}
