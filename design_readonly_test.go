package mvpp_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

// driftTo makes one query dominate what the server has observed.
func driftTo(t *testing.T, srv *mvpp.Server, query string, times int) {
	t.Helper()
	for i := 0; i < times; i++ {
		if _, err := srv.Query(context.Background(), query); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDesignIsReadOnlyBesideItsServers: a Design is a value. The servers
// built from it re-select under the frequencies each of them observes —
// on request (Advise) and, with cost auditing on, after any epoch with fresh
// drift — without editing the plan their caller and their siblings read.
func TestDesignIsReadOnlyBesideItsServers(t *testing.T) {
	t.Run("the design beside an advising server", func(t *testing.T) {
		design, srv := paperServer(t, mvpp.ServeOptions{})
		driftTo(t, srv, "Q4", 400)

		type reading struct {
			virtual, allMaterialized float64
			strategy                 [3]float64
			weights                  []float64
		}
		read := func() reading {
			c := design.Costs()
			r := reading{virtual: c.AllVirtualTotal, allMaterialized: c.AllMaterializedTotal}
			var err error
			if r.strategy[0], r.strategy[1], r.strategy[2], err = design.EvaluateStrategy(nil); err != nil {
				t.Fatal(err)
			}
			for _, v := range design.Export().Vertices {
				r.weights = append(r.weights, v.Weight)
			}
			return r
		}
		want := read()

		stop, advised := make(chan struct{}), make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					advised <- nil
					return
				default:
				}
				if _, err := srv.Advise(); err != nil {
					advised <- err
					return
				}
			}
		}()
		const rounds = 20000
		var wrongCosts, wrongStrategy, wrongWeights int
		for i := 0; i < rounds; i++ {
			got := read()
			if got.virtual != want.virtual || got.allMaterialized != want.allMaterialized {
				wrongCosts++
			}
			if got.strategy != want.strategy {
				wrongStrategy++
			}
			if !reflect.DeepEqual(got.weights, want.weights) {
				wrongWeights++
			}
		}
		close(stop)
		if err := <-advised; err != nil {
			t.Fatal(err)
		}
		t.Logf("%d rounds beside a looping Advise: %d Costs(), %d EvaluateStrategy(nil), %d Export() weight vectors differ from the design's own",
			rounds, wrongCosts, wrongStrategy, wrongWeights)
		if wrongCosts+wrongStrategy+wrongWeights > 0 {
			t.Errorf("the design changed under its reader: %d / %d / %d of %d readings wrong (all-virtual total %g)",
				wrongCosts, wrongStrategy, wrongWeights, rounds, want.virtual)
		}
	})

	t.Run("two servers with opposite drift", func(t *testing.T) {
		design, err := paperDesigner(t, mvpp.Options{}).Design()
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 3000
		var servers [2]*mvpp.Server
		var serial [2]*mvpp.Advice
		for i, heavy := range []string{"Q4", "Q1"} {
			srv, err := design.NewServer(mvpp.ServeOptions{Scale: 0.01, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			driftTo(t, srv, heavy, 400)
			if serial[i], err = srv.Advise(); err != nil {
				t.Fatal(err)
			}
			servers[i] = srv
		}
		if reflect.DeepEqual(serial[0].Proposed, serial[1].Proposed) && serial[0].ProposedTotal == serial[1].ProposedTotal {
			t.Fatalf("both drifts advise %v at %g: the case tells nothing", serial[0].Proposed, serial[0].ProposedTotal)
		}

		var wrong [2]int
		var wg sync.WaitGroup
		for i := range servers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					a, err := servers[i].Advise()
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(a.Proposed, serial[i].Proposed) ||
						a.ProposedTotal != serial[i].ProposedTotal || a.CurrentTotal != serial[i].CurrentTotal {
						wrong[i]++
					}
				}
			}(i)
		}
		wg.Wait()
		t.Logf("%d concurrent Advise calls over one design: %d differ from their server's serial answer", 2*rounds, wrong[0]+wrong[1])
		if n := wrong[0] + wrong[1]; n > 0 {
			t.Errorf("%d of %d advices were computed under another server's frequencies (Q4-heavy: %d, Q1-heavy: %d)",
				n, 2*rounds, wrong[0], wrong[1])
		}
	})
}
