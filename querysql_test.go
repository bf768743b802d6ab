package mvpp_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

// liveHeap is the live heap after a full collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestQuerySQLKeepsNoPerStatementState plans 2 000 distinct ad-hoc
// statements with the result cache off and bounds the live heap's growth:
// planning one statement must leave nothing behind once its answer is
// returned. An estimator kept for the server's lifetime grows its arena and
// memo by every statement's expression classes (about 15 MB here).
func TestQuerySQLKeepsNoPerStatementState(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 2 000 statements")
	}
	_, srv := paperServer(t, mvpp.ServeOptions{CacheCapacity: -1})
	ctx := context.Background()
	stmt := func(i int) string {
		return fmt.Sprintf(`SELECT Customer.name, Product.name FROM Product, Order, Customer WHERE quantity > %d AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid`, i)
	}
	const statements = 2000
	if _, err := srv.QuerySQL(ctx, stmt(statements)); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < statements; i++ {
		if _, err := srv.QuerySQL(ctx, stmt(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(srv)
	const bound = 1 << 20
	if after > before && after-before > bound {
		t.Errorf("%d distinct statements grew the live heap by %.2f MB (%d B each), want at most %.2f MB",
			statements, float64(after-before)/(1<<20), (after-before)/statements, float64(bound)/(1<<20))
	}
}

// TestQuerySQLBesideQuery runs ad-hoc statements from several goroutines
// beside named queries (meant for -race): planning shares nothing between
// calls but the catalog, and every answer matches its sequential one.
func TestQuerySQLBesideQuery(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{CacheCapacity: -1})
	ctx := context.Background()
	const sql = `SELECT Product.name FROM Product, Division WHERE Division.city = 'LA' AND Product.Did = Division.Did`
	want, err := srv.QuerySQL(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	queries := design.Queries()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := srv.QuerySQL(ctx, sql)
				if err != nil {
					t.Error(err)
					return
				}
				if got.NumRows() != want.NumRows() {
					t.Errorf("concurrent QuerySQL answered %d rows, want %d", got.NumRows(), want.NumRows())
					return
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := srv.Query(ctx, queries[(g+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
