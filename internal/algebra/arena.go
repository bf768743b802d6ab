package algebra

import (
	"sync"
	"sync/atomic"
)

// Op is the operator kind of an arena expression.
type Op uint8

// Operator kinds.
const (
	OpScan Op = iota + 1
	OpSelect
	OpProject
	OpJoin
	OpAggregate
	OpOther // a Node type the arena does not know; identified by Canonical()
)

// ExprID identifies one hash-consed expression of an Arena: an operator,
// its parameters as written (projection column order, join orientation and
// condition order) and its child expressions. Two plan nodes with the same
// ExprID are interchangeable in every respect, including output column
// order.
type ExprID int32

// StructID identifies an expression's structural class: equal StructIDs ⇔
// equal StructuralKey strings. It is the identity under which the MVPP
// merges common subexpressions into one vertex.
type StructID int32

// SemID identifies the relation an expression computes: equal SemIDs ⇔
// equal SemanticKey strings. Size estimates are memoized per SemID.
type SemID int32

// NoExpr marks an absent child.
const NoExpr ExprID = -1

// Expr describes one expression of an Arena. The slices are shared with the
// arena and must not be modified.
type Expr struct {
	Op          Op
	Left, Right ExprID // NoExpr when absent; unary operators use Left
	Struct      StructID
	Sem         SemID
	// Node is the expression's representative plan node: the first node
	// interned with this ExprID, over the representatives of its children.
	Node Node
	// Leaves holds the interned IDs (Arena.Rel) of the base relations under
	// the expression; Conds the interned IDs (Arena.Cond) of every join
	// condition in it.
	Leaves, Conds Bits
}

// Arena interns plan expressions to small integers so that identity —
// which the string keys of semantic.go rebuild from the whole subtree on
// every probe — becomes an integer comparison, and so that everything that
// is a function of an expression can be stored once in a slice indexed by
// its ID. Relations, join conditions, conjuncts and column references are
// interned first; an expression is then the exact tuple (operator,
// interned parameters, child IDs), looked up in Go maps keyed by that
// tuple — compared exactly, never by hash alone.
//
// An Arena is safe for concurrent use. IDs are dense, start at 0 and are
// assigned in interning order.
type Arena struct {
	uid uint64 // distinguishes arenas in the nodes' identity cache

	mu      sync.Mutex
	rels    strTable // relation names; dense, indexes Leaves
	conds   strTable // JoinCond.CanonicalString; dense, indexes Conds
	conjs   strTable // conjunct canonical strings
	atoms   strTable // column references, aggregation strings, foreign Canonical()
	preds   []Predicate
	colIDs  map[ColumnRef]int32
	condIDs map[JoinCond]int32 // oriented condition → exact ID
	canon   []int32            // exact condition ID → canonical ID (conds)
	lists   listTable
	scratch []int32 // parameter list being looked up

	exprs   []exprRec
	byKey   map[tuple]ExprID
	structs map[tuple]StructID
	sems    map[tuple]SemID
}

// tuple is the comparable identity of an expression, a structural class or
// a semantic class: operator, one interned parameter list and up to two
// children (or other interned lists, for semantic classes).
type tuple struct {
	op   Op
	p    int32
	a, b int32
}

type exprRec struct {
	key tuple
	Expr
	// semP, semQ carry what a parent needs to flatten through this node:
	// for a selection its merged conjunct list and the SemID below the
	// selection stack; for a join its condition-set and input-multiset lists.
	semP, semQ int32
}

var arenaUIDs atomic.Uint64

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		uid:     arenaUIDs.Add(1),
		colIDs:  make(map[ColumnRef]int32),
		condIDs: make(map[JoinCond]int32),
		byKey:   make(map[tuple]ExprID),
		structs: make(map[tuple]StructID),
		sems:    make(map[tuple]SemID),
	}
}

// ident caches, on the node itself, which expression of which arena the
// node is, so that re-interning a node costs one atomic load. It is
// overwritten when another arena interns the node.
type ident struct{ p atomic.Pointer[identRec] }

type identRec struct {
	arena uint64
	id    ExprID
}

func identOf(n Node) *ident {
	switch v := n.(type) {
	case *Scan:
		return &v.ident
	case *Select:
		return &v.ident
	case *Project:
		return &v.ident
	case *Join:
		return &v.ident
	case *Aggregate:
		return &v.ident
	}
	return nil
}

func (a *Arena) cached(n Node) (ExprID, bool) {
	if c := identOf(n); c != nil {
		if rec := c.p.Load(); rec != nil && rec.arena == a.uid {
			return rec.id, true
		}
	}
	return NoExpr, false
}

func (a *Arena) remember(n Node, id ExprID) {
	if c := identOf(n); c != nil {
		c.p.Store(&identRec{arena: a.uid, id: id})
	}
}

// Intern returns the expression for the plan rooted at n, adding it (and
// its subexpressions) on first sight.
func (a *Arena) Intern(n Node) ExprID {
	if id, ok := a.cached(n); ok {
		return id
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.intern(n)
}

func (a *Arena) intern(n Node) ExprID {
	if id, ok := a.cached(n); ok {
		return id
	}
	var id ExprID
	switch v := n.(type) {
	case *Scan:
		id = a.add(tuple{OpScan, a.rels.id(v.Relation), -1, -1}, v)
	case *Select:
		in := a.intern(v.Input)
		conj := Conjuncts(v.Pred)
		ids := make([]int32, len(conj))
		for i, c := range conj {
			ids[i] = a.conjunct(c)
		}
		id = a.add(tuple{OpSelect, a.lists.id(sortedSet(ids)), int32(in), -1}, v)
	case *Project:
		id = a.project(a.intern(v.Input), v.Cols, v)
	case *Join:
		id = a.join(a.intern(v.Left), a.intern(v.Right), v.On, v)
	case *Aggregate:
		id = a.aggregate(a.intern(v.Input), v.GroupBy, v.Aggs, v)
	default:
		id = a.add(tuple{OpOther, a.atoms.id(n.Canonical()), -1, -1}, n)
	}
	if _, ok := a.cached(n); !ok {
		a.remember(n, id)
	}
	return id
}

// Expr returns the description of an interned expression.
func (a *Arena) Expr(id ExprID) Expr {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exprs[id].Expr
}

// Node returns the representative plan node of an interned expression.
func (a *Arena) Node(id ExprID) Node { return a.Expr(id).Node }

// Size returns how many expressions, structural classes and semantic
// classes the arena holds; IDs of each kind are below the respective count.
func (a *Arena) Size() (exprs, structs, sems int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.exprs), len(a.structs), len(a.sems)
}

// Rel interns a relation name; the result indexes Expr.Leaves.
func (a *Arena) Rel(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.rels.id(name))
}

// RelName returns the relation name behind an interned ID.
func (a *Arena) RelName(i int) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rels.strs[i]
}

// Cond interns a join condition up to orientation (A.x = B.y and
// B.y = A.x agree); the result indexes Expr.Conds.
func (a *Arena) Cond(c JoinCond) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.canon[a.cond(c)])
}

// Conjuncts interns the conjuncts of p (nested conjunctions flattened, as
// NewAnd does) by canonical string and returns their IDs in p's order, for
// use with Select.
func (a *Arena) Conjuncts(p Predicate) []int32 {
	conj := Conjuncts(NewAnd(p))
	ids := make([]int32, len(conj))
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, c := range conj {
		ids[i] = a.conjunct(c)
	}
	return ids
}

// Select returns σ(conj)(in) for conjunct IDs obtained from Conjuncts.
func (a *Arena) Select(in ExprID, conj []int32) ExprID {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scratch = append(a.scratch[:0], conj...)
	set := a.lists.id(sortedSet(a.scratch))
	key := tuple{OpSelect, set, int32(in), -1}
	if id, ok := a.byKey[key]; ok {
		return id
	}
	preds := make([]Predicate, 0, len(conj))
	for _, c := range a.lists.lists[set] {
		preds = append(preds, a.preds[c])
	}
	return a.add(key, NewSelect(a.exprs[in].Node, NewAnd(preds...)))
}

// Project returns π(cols)(in).
func (a *Arena) Project(in ExprID, cols []ColumnRef) ExprID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.project(in, cols, nil)
}

// Join returns l ⋈(on) r.
func (a *Arena) Join(l, r ExprID, on []JoinCond) ExprID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.join(l, r, on, nil)
}

// Aggregate returns γ(groupBy; aggs)(in).
func (a *Arena) Aggregate(in ExprID, groupBy []ColumnRef, aggs []Aggregation) ExprID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aggregate(in, groupBy, aggs, nil)
}

// WithChildren returns the expression applying id's operator and
// parameters to other children (id itself when they are its own).
func (a *Arena) WithChildren(id, l, r ExprID) ExprID {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := a.exprs[id].key
	if key.a < 0 {
		return id // leaves have no children to replace
	}
	key.a, key.b = int32(l), int32(r)
	if same, ok := a.byKey[key]; ok {
		return same
	}
	left := a.exprs[l].Node
	switch v := a.exprs[id].Node.(type) {
	case *Select:
		return a.add(key, NewSelect(left, v.Pred))
	case *Project:
		return a.add(key, NewProject(left, v.Cols))
	case *Join:
		return a.add(key, NewJoin(left, a.exprs[r].Node, v.On))
	case *Aggregate:
		return a.add(key, NewAggregate(left, v.GroupBy, v.Aggs))
	}
	return id
}

func (a *Arena) project(in ExprID, cols []ColumnRef, n Node) ExprID {
	a.scratch = a.scratch[:0]
	for _, c := range cols {
		a.scratch = append(a.scratch, a.column(c))
	}
	key := tuple{OpProject, a.lists.id(a.scratch), int32(in), -1}
	if id, ok := a.byKey[key]; ok {
		return id
	}
	if n == nil {
		n = NewProject(a.exprs[in].Node, cols)
	}
	return a.add(key, n)
}

func (a *Arena) join(l, r ExprID, on []JoinCond, n Node) ExprID {
	a.scratch = a.scratch[:0]
	for _, c := range on {
		a.scratch = append(a.scratch, a.cond(c))
	}
	key := tuple{OpJoin, a.lists.id(a.scratch), int32(l), int32(r)}
	if id, ok := a.byKey[key]; ok {
		return id
	}
	if n == nil {
		n = NewJoin(a.exprs[l].Node, a.exprs[r].Node, on)
	}
	return a.add(key, n)
}

// aggregate's parameter list is [len(groupBy), group columns…, aggregation
// strings…] in the node's own order.
func (a *Arena) aggregate(in ExprID, groupBy []ColumnRef, aggs []Aggregation, n Node) ExprID {
	a.scratch = append(a.scratch[:0], int32(len(groupBy)))
	for _, c := range groupBy {
		a.scratch = append(a.scratch, a.column(c))
	}
	for _, g := range aggs {
		a.scratch = append(a.scratch, a.atoms.id(g.String()))
	}
	key := tuple{OpAggregate, a.lists.id(a.scratch), int32(in), -1}
	if id, ok := a.byKey[key]; ok {
		return id
	}
	if n == nil {
		n = NewAggregate(a.exprs[in].Node, groupBy, aggs)
	}
	return a.add(key, n)
}

// add returns the expression with the exact tuple, recording it — with node
// as its representative — when it is new.
func (a *Arena) add(key tuple, node Node) ExprID {
	if id, ok := a.byKey[key]; ok {
		return id
	}
	rec := exprRec{key: key}
	rec.Op, rec.Left, rec.Right, rec.Node = key.op, ExprID(key.a), ExprID(key.b), node
	a.classify(&rec)
	id := ExprID(len(a.exprs))
	a.exprs = append(a.exprs, rec)
	a.byKey[key] = id
	a.remember(rec.Node, id)
	return id
}

// classify derives the structural class, the semantic class and the leaf
// and condition sets of a new expression from its key and its children,
// mirroring StructuralKey and SemanticKey case by case.
func (a *Arena) classify(rec *exprRec) {
	key := rec.key
	var left, right *exprRec
	if key.a >= 0 {
		left = &a.exprs[key.a]
		rec.Leaves, rec.Conds = left.Leaves, left.Conds
	}
	if key.b >= 0 {
		right = &a.exprs[key.b]
		rec.Leaves = left.Leaves.Union(right.Leaves)
		rec.Conds = left.Conds.Union(right.Conds)
	}
	str := tuple{op: key.op, p: key.p, a: -1, b: -1}
	if left != nil {
		str.a = int32(left.Struct)
	}
	sem := str
	if left != nil {
		sem.a = int32(left.Sem)
	}
	switch key.op {
	case OpScan:
		rec.Leaves.Set(int(key.p))
	case OpSelect:
		// Stacked selections merge into one conjunct set over whatever is
		// below the stack.
		rec.semP, rec.semQ = key.p, int32(left.Sem)
		if left.Op == OpSelect {
			merged := append(append([]int32(nil), a.lists.lists[key.p]...), a.lists.lists[left.semP]...)
			rec.semP, rec.semQ = a.lists.id(sortedSet(merged)), left.semQ
		}
		sem.p, sem.a = rec.semP, rec.semQ
	case OpProject:
		// Column order is not part of either identity.
		str.p = a.lists.id(sorted(append([]int32(nil), a.lists.lists[key.p]...)))
		sem.p = str.p
	case OpAggregate:
		// Group columns and aggregations are each compared as sorted lists.
		ids := append([]int32(nil), a.lists.lists[key.p]...)
		groups := ids[1 : 1+ids[0]]
		sorted(groups)
		sorted(ids[1+len(groups):])
		str.p = a.lists.id(ids)
		sem.p = str.p
	case OpJoin:
		own := make([]int32, len(a.lists.lists[key.p]))
		for i, c := range a.lists.lists[key.p] {
			own[i] = a.canon[c]
			rec.Conds.Set(int(own[i])) // the union above is this record's own slice
		}
		// Structural class: the node's own conditions as a sorted list,
		// children as an unordered pair.
		str.p = a.lists.id(sorted(append([]int32(nil), own...)))
		str.a, str.b = int32(left.Struct), int32(right.Struct)
		if str.b < str.a {
			str.a, str.b = str.b, str.a
		}
		// Semantic class: the whole join tree flattened to its condition
		// set and the multiset of its non-join inputs.
		conds, inputs := own, []int32(nil)
		for _, child := range []*exprRec{left, right} {
			if child.Op == OpJoin {
				conds = append(conds, a.lists.lists[child.semP]...)
				inputs = append(inputs, a.lists.lists[child.semQ]...)
			} else {
				inputs = append(inputs, int32(child.Sem))
			}
		}
		rec.semP, rec.semQ = a.lists.id(sortedSet(conds)), a.lists.id(sorted(inputs))
		sem.p, sem.a, sem.b = rec.semP, rec.semQ, -1
	}
	rec.Struct = classID(a.structs, str)
	rec.Sem = classID(a.sems, sem)
}

func classID[T ~int32](m map[tuple]T, key tuple) T {
	id, ok := m[key]
	if !ok {
		id = T(len(m))
		m[key] = id
	}
	return id
}

func (a *Arena) conjunct(p Predicate) int32 {
	id := a.conjs.id(p.String())
	if int(id) == len(a.preds) {
		a.preds = append(a.preds, p)
	}
	return id
}

func (a *Arena) column(c ColumnRef) int32 {
	id, ok := a.colIDs[c]
	if !ok {
		id = a.atoms.id(c.String())
		a.colIDs[c] = id
	}
	return id
}

func (a *Arena) cond(c JoinCond) int32 {
	id, ok := a.condIDs[c]
	if !ok {
		id = int32(len(a.canon))
		a.condIDs[c] = id
		a.canon = append(a.canon, a.conds.id(c.CanonicalString()))
	}
	return id
}

// strTable interns strings to dense IDs.
type strTable struct {
	ids  map[string]int32
	strs []string
}

func (t *strTable) id(s string) int32 {
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]int32)
		}
		id = int32(len(t.strs))
		t.ids[s] = id
		t.strs = append(t.strs, s)
	}
	return id
}

// listTable interns int32 lists to dense IDs, keyed by their exact
// little-endian byte encoding.
type listTable struct {
	ids   map[string]int32
	lists [][]int32
	buf   []byte
}

func (t *listTable) id(xs []int32) int32 {
	t.buf = t.buf[:0]
	for _, x := range xs {
		t.buf = append(t.buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	id, ok := t.ids[string(t.buf)]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]int32)
		}
		id = int32(len(t.lists))
		t.ids[string(t.buf)] = id
		t.lists = append(t.lists, append([]int32(nil), xs...))
	}
	return id
}

// sorted sorts xs in place (insertion sort: parameter lists are a handful
// of IDs) and returns it.
func sorted(xs []int32) []int32 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

// sortedSet sorts xs in place and drops duplicates.
func sortedSet(xs []int32) []int32 {
	sorted(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
