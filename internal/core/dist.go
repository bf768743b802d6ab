package core

import (
	"fmt"
	"sort"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// Distribution places base relations on member-database sites and prices
// shipping their blocks to the warehouse site. This implements the paper's
// §4.1 note: "in the distributed data warehouse environment, the cost C
// should incorporate the costs of data transferring among different sites."
//
// The model: queries and views execute at the warehouse. Whenever a base
// relation participates in computing a (virtual) query answer or refreshing
// a materialized view, its blocks are shipped from its site once per
// execution or refresh epoch; materialized views are stored at the
// warehouse and incur no transfer at query time — which is exactly why
// materialization pays off more in the distributed setting.
type Distribution struct {
	// SiteOf maps relation name to site name; relations absent from the map
	// are co-located with the warehouse.
	SiteOf map[string]string
	// Warehouse is the warehouse's site name.
	Warehouse string
	// CostPerBlock prices shipping one block between two sites; it is never
	// called with equal sites.
	CostPerBlock func(from, to string) float64
}

// UniformDistribution builds a distribution where every listed relation
// lives on its own site and shipping any block to the warehouse costs
// perBlock.
func UniformDistribution(relations []string, perBlock float64) Distribution {
	siteOf := make(map[string]string, len(relations))
	for _, r := range relations {
		siteOf[r] = "site-" + r
	}
	return Distribution{
		SiteOf:    siteOf,
		Warehouse: "warehouse",
		CostPerBlock: func(from, to string) float64 {
			return perBlock
		},
	}
}

// ApplyDistribution annotates the MVPP with per-relation transfer costs.
// Passing a zero-value Distribution clears the annotation. Design-time: not
// safe to call once the MVPP is shared.
func (m *MVPP) ApplyDistribution(d Distribution) error {
	if d.SiteOf == nil {
		m.Transfer = nil
		return nil
	}
	if d.CostPerBlock == nil {
		return fmt.Errorf("core: distribution has no CostPerBlock function")
	}
	transfer := make(map[string]float64, len(m.Leaves))
	for rel := range m.Leaves {
		site, ok := d.SiteOf[rel]
		if !ok || site == d.Warehouse {
			continue
		}
		c := d.CostPerBlock(site, d.Warehouse)
		if c < 0 {
			return fmt.Errorf("core: negative transfer cost for %s", rel)
		}
		if c > 0 {
			transfer[rel] = c
		}
	}
	m.Transfer = transfer
	return nil
}

// transferForLeaves prices shipping the given leaf vertices' blocks once,
// summing in ascending ID order (float summation is order-sensitive).
func (m *MVPP) transferForLeaves(leaves algebra.Bits) float64 {
	if len(m.Transfer) == 0 {
		return 0
	}
	total := 0.0
	for id := leaves.Next(0); id >= 0; id = leaves.Next(id + 1) {
		v := m.Vertices[id]
		if tc, ok := m.Transfer[v.Relation]; ok {
			total += tc * v.Est.Blocks
		}
	}
	return total
}

// reachedLeaves returns the leaf vertices read when computing v with the
// given materialized set (descent stops at materialized vertices, which are
// stored locally at the warehouse). Only a distributed warehouse prices
// them, so the set is nil when nothing ships.
func (m *MVPP) reachedLeaves(v *Vertex, mat algebra.Bits) algebra.Bits {
	if len(m.Transfer) == 0 || mat.Has(v.ID) {
		return nil
	}
	leaves := algebra.NewBits(len(m.Vertices))
	seen := algebra.NewBits(len(m.Vertices))
	var walk func(u *Vertex)
	walk = func(u *Vertex) {
		if seen.Has(u.ID) {
			return
		}
		seen.Set(u.ID)
		if u.IsLeaf() {
			leaves.Set(u.ID)
			return
		}
		for _, in := range u.In {
			if !mat.Has(in.ID) {
				walk(in)
			}
		}
	}
	walk(v)
	return leaves
}

// TransferSites lists the relations with a non-zero transfer cost, sorted —
// mainly for reports.
func (m *MVPP) TransferSites() []string {
	out := make([]string, 0, len(m.Transfer))
	for rel := range m.Transfer {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}
