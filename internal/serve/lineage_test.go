package serve

import (
	"sync"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// TestCarriedFingerprintLineageBesideMaintainer: Lineage reads digest the
// published views while the maintainer lands epochs, checkpoints after each
// and carries the digests into every refreshed view — one goroutine writing
// a table's cached digest, another reading it, clean under -race — and the
// final read reports each view's digest of its rows.
func TestCarriedFingerprintLineageBesideMaintainer(t *testing.T) {
	s, _ := serveFixture(t, Config{
		DeltaBatch:          1 << 20,
		Snapshots:           testStore(t),
		Journal:             engine.NewMemJournal(),
		SnapshotEveryEpochs: 1,
	})
	const epochs = 30
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Lineage()
			}
		}
	}()
	for i := int64(1); i <= epochs; i++ {
		div, prod := deltaPair(i)
		if err := s.Ingest("Division", div); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest("Product", prod); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := s.SnapshotStats().Checkpoints; got < epochs {
		t.Fatalf("%d checkpoints over %d epochs with period 1", got, epochs)
	}
	rels := s.state.Load().rels
	for name, vl := range s.Lineage() {
		mv, err := rels.View(name)
		if err != nil {
			t.Fatal(err)
		}
		tb := mv.Table()
		fresh := engine.NewTable(tb.Name, tb.Schema, tb.BlockRows)
		rows := make([][]algebra.Value, tb.NumRows())
		for i := range rows {
			rows[i] = tb.Row(i).Values
		}
		if err := fresh.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		if want := hexDigest(fresh.Fingerprint()); vl.Fingerprint != want {
			t.Errorf("%s: lineage fingerprint %s, its rows digest to %s", name, vl.Fingerprint, want)
		}
	}
}
