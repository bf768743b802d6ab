package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// TestResultCacheSlots is the result cache's cage: readers racing hits,
// misses and ad-hoc submissions over a cache smaller than the plans they ask
// never see it hold more than its capacity, nor a plan answered with another
// plan's rows; a named query's plan submitted ad hoc shares the query's
// entry; a disabled cache stays empty.
func TestResultCacheSlots(t *testing.T) {
	ctx := context.Background()

	t.Run("contention", func(t *testing.T) {
		const capacity, readers, rounds, named = 4, 4, 300, 6
		db := paperServeDB(t)
		cust, err := db.Table("Customer")
		if err != nil {
			t.Fatal(err)
		}
		below := func(k int64) algebra.Node {
			return algebra.NewSelect(algebra.NewScan("Customer", cust.Schema),
				algebra.Compare(algebra.ColOperand(algebra.Ref("Customer", "Cid")),
					algebra.OpLt, algebra.LitOperand(algebra.IntVal(k))))
		}
		// Plans 0..named-1 are the named queries, the rest ad-hoc plans no
		// named query equals; every plan has rows of its own.
		var queries []QuerySpec
		var plans []algebra.Node
		for i := int64(0); i < 2*named; i++ {
			plans = append(plans, below(5+5*i))
			if i < named {
				queries = append(queries, QuerySpec{Name: fmt.Sprintf("Q%d", i), Plan: plans[i], Frequency: 1})
			}
		}
		want := make([]string, len(plans))
		seen := make(map[string]bool)
		for i, p := range plans {
			res, err := db.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = orderedDigest(res.Table)
			if seen[want[i]] {
				t.Fatalf("plan %d's rows equal another plan's: the check below could not tell them apart", i)
			}
			seen[want[i]] = true
		}
		s, err := New(Config{DB: db, Queries: queries, CacheCapacity: capacity, DeltaBatch: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })

		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for range rounds {
					// A named query by name, its plan ad hoc, or an ad-hoc plan.
					i := rng.Intn(len(plans) + named)
					var res *Result
					var err error
					if i < named {
						res, err = s.Query(ctx, queries[i].Name)
					} else {
						i -= named
						res, err = s.Submit(ctx, plans[i])
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got := orderedDigest(res.Table); got != want[i] {
						t.Errorf("plan %d (cached=%v) answered with another plan's rows", i, res.Cached)
						return
					}
					if n := s.Stats().CacheEntries; n > capacity {
						t.Errorf("cache holds %d entries, capacity %d", n, capacity)
						return
					}
				}
			}(rand.New(rand.NewSource(int64(r))))
		}
		wg.Wait()
		st := s.Stats()
		if st.CacheHits == 0 || st.CacheMisses <= capacity {
			t.Errorf("%d hits, %d misses: the mix should both hit and evict", st.CacheHits, st.CacheMisses)
		}
		if st.CacheEntries != capacity {
			t.Errorf("a cache that evicted holds %d entries, want %d", st.CacheEntries, capacity)
		}
	})

	t.Run("named plan submitted", func(t *testing.T) {
		s, db := serveFixture(t, Config{DeltaBatch: 1 << 20})
		r1, err := s.Query(ctx, "QLA")
		if err != nil {
			t.Fatal(err)
		}
		// The plan built afresh: equal to QLA's, not the same value.
		r2, err := s.Submit(ctx, laJoinPlan(t, db))
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Cached || r2.Table != r1.Table {
			t.Errorf("QLA's plan submitted after Query: cached=%v, same table=%v", r2.Cached, r2.Table == r1.Table)
		}
		if n := s.Stats().CacheEntries; n != 1 {
			t.Errorf("one plan asked twice holds %d cache entries", n)
		}
	})

	t.Run("disabled stays empty", func(t *testing.T) {
		s, db := serveFixture(t, Config{DeltaBatch: 1 << 20, CacheCapacity: -1})
		for range 3 {
			for _, ask := range []func() (*Result, error){
				func() (*Result, error) { return s.Query(ctx, "QLA") },
				func() (*Result, error) { return s.Submit(ctx, laCustomerPlan(t, db)) },
			} {
				res, err := ask()
				if err != nil {
					t.Fatal(err)
				}
				if res.Cached {
					t.Error("a disabled cache answered a hit")
				}
			}
		}
		if n := s.Stats().CacheEntries; n != 0 {
			t.Errorf("a disabled cache holds %d entries", n)
		}
	})
}
