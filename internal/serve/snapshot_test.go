package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

func testStore(t *testing.T) *snapshot.Store {
	t.Helper()
	st, err := snapshot.Open(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCheckpointWithoutStore(t *testing.T) {
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20})
	if _, err := s.Checkpoint(); !errors.Is(err, ErrNoSnapshots) {
		t.Fatalf("Checkpoint without a store = %v, want ErrNoSnapshots", err)
	}
	if ss := s.SnapshotStats(); ss.Configured {
		t.Error("SnapshotStats.Configured true without a store")
	}
}

func TestCheckpointDeclinesMidEpoch(t *testing.T) {
	s, db := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Snapshots:  testStore(t),
		Journal:    engine.NewMemJournal(),
	})
	// Deltas staged in the engine and not landed (here directly, bypassing
	// the serving layer's buffer; in service, by an aborted epoch) mean an
	// epoch is due: the checkpoint declines and the next trigger succeeds.
	div, _ := deltaPair(1)
	if err := db.InsertDelta("Division", div); err != nil {
		t.Fatal(err)
	}
	res, err := s.Checkpoint()
	if err != nil || res != nil {
		t.Fatalf("mid-epoch checkpoint = (%v, %v), want (nil, nil)", res, err)
	}
	if ss := s.SnapshotStats(); ss.Skipped != 1 || ss.Checkpoints != 0 {
		t.Errorf("stats = skipped %d, checkpoints %d; want 1, 0", ss.Skipped, ss.Checkpoints)
	}
	// After the epoch lands it succeeds and stamps the acked watermark.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err = s.Checkpoint()
	if err != nil || res == nil {
		t.Fatalf("post-flush checkpoint = (%v, %v)", res, err)
	}
	ss := s.SnapshotStats()
	if ss.Checkpoints != 1 || ss.Generation != res.Generation {
		t.Errorf("stats after checkpoint = %+v", ss)
	}
	if len(ss.Views) != 2 {
		t.Errorf("checkpointed views = %d, want both healthy views", len(ss.Views))
	}
}

func TestEpochCountTriggerFiresCheckpoints(t *testing.T) {
	s, _ := serveFixture(t, Config{
		DeltaBatch:          1 << 20,
		Snapshots:           testStore(t),
		Journal:             engine.NewMemJournal(),
		SnapshotEveryEpochs: 2,
	})
	for i := int64(1); i <= 4; i++ {
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
	ss := s.SnapshotStats()
	if ss.Checkpoints < 2 {
		t.Errorf("epoch trigger fired %d checkpoints over 4 epochs with period 2, want >= 2", ss.Checkpoints)
	}
	// Idle flushes land no epoch and must not re-trigger.
	before := ss.Checkpoints
	for i := 0; i < 3; i++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SnapshotStats().Checkpoints; got != before {
		t.Errorf("idle flushes advanced checkpoints %d -> %d", before, got)
	}
}

func TestCheckpointTruncatesJournal(t *testing.T) {
	j := engine.NewMemJournal()
	s, _ := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Snapshots:  testStore(t),
		Journal:    j,
	})
	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := j.RecordsSince(0); len(recs) == 0 {
		t.Fatal("journal retained nothing before the checkpoint")
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint's watermark covers both records; compaction drops them.
	if recs, _ := j.RecordsSince(0); len(recs) != 0 {
		t.Errorf("journal still retains %d records past the checkpoint", len(recs))
	}
}

// TestSnapshotTimerSkipsUnchangedState: the wall-clock trigger writes a
// generation for a served state once. An idle server does not rewrite the
// warehouse every interval; a landed epoch is a new state and gets its
// generation at the next tick; nothing is aged out on the way.
func TestSnapshotTimerSkipsUnchangedState(t *testing.T) {
	const interval = 5 * time.Millisecond
	s, _ := serveFixture(t, Config{
		DeltaBatch:          1 << 20,
		Snapshots:           testStore(t),
		Journal:             engine.NewMemJournal(),
		SnapshotEveryEpochs: -1,
		SnapshotInterval:    interval,
	})
	// settlesAt waits for the timer to reach want checkpoints, then watches
	// it hold there for at least ten more intervals.
	settlesAt := func(want int64, when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.SnapshotStats().Checkpoints < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d checkpoints after 5s, want %d", when, s.SnapshotStats().Checkpoints, want)
			}
			time.Sleep(interval / 5)
		}
		for held := time.Now(); time.Since(held) < 12*interval; time.Sleep(interval / 5) {
			if ss := s.SnapshotStats(); ss.Checkpoints != want || ss.Generation != uint64(want) {
				t.Fatalf("%s: %d checkpoints, generation %d; want exactly %d of each", when, ss.Checkpoints, ss.Generation, want)
			}
		}
	}
	settlesAt(1, "idle since New")

	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	settlesAt(2, "one landed epoch later")
	if ss := s.SnapshotStats(); ss.AgedOut != 0 || ss.Failures != 0 || ss.Skipped != 0 {
		t.Errorf("aged out %d, failures %d, skipped %d; want 0 of each", ss.AgedOut, ss.Failures, ss.Skipped)
	}
}

// TestCheckpointsOfOneStateAreDeterministic: checkpoints of one held state
// give manifests equal but for their generation and time — views in name
// order, the same extents — however the view registry happens to iterate.
func TestCheckpointsOfOneStateAreDeterministic(t *testing.T) {
	st := testStore(t)
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Snapshots: st, Journal: engine.NewMemJournal()})
	div, prod := deltaPair(1)
	if err := s.Ingest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("Product", prod); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var first map[string]any
	for i := 0; i < 10; i++ {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m, err := st.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !slices.IsSortedFunc(m.Views, func(a, b snapshot.ViewSegment) int { return strings.Compare(a.Name, b.Name) }) {
			t.Fatal("the manifest lists its views out of name order")
		}
		data, err := os.ReadFile(filepath.Join(m.Dir(), "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		delete(got, "generation")
		delete(got, "created_at")
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("checkpoint %d of the same state wrote another manifest:\n%s", i+1, data)
		}
	}
}
