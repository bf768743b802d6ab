package serve

import (
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"github.com/warehousekit/mvpp/internal/engine"
)

// Refresh lineage: every epoch that changes a view's contents appends one
// LineageEntry to the view's bounded history — which epoch, which journal
// LSN range, how many delta rows and batches, how the refresh ran
// (incremental, recompute, fallback...), and the causal trace ID when the
// epoch was sampled. The LSN ranges of consecutive entries partition the
// journal: entry i+1's low LSN equals (or exceeds, across restarts) entry
// i's high LSN, so lineage answers "exactly which journal records produced
// this view's contents" — and after crash recovery the fingerprint of the
// restored table must match the fingerprint the lineage recorded, which
// the chaos suite verifies against journal replay.

// LineageEntry is one epoch's contribution to a view's contents.
type LineageEntry struct {
	// Epoch is the maintenance epoch that produced this entry.
	Epoch uint64 `json:"epoch"`
	// LSNLo/LSNHi bound the journal records this epoch landed: the entry
	// covers (LSNLo, LSNHi]. Consecutive entries partition the journal.
	LSNLo uint64 `json:"lsn_lo"`
	LSNHi uint64 `json:"lsn_hi"`
	// DeltaRows/DeltaBatches count the staged source rows and ingest
	// batches the epoch drained (across all tables, not just this view's).
	DeltaRows    int `json:"delta_rows,omitempty"`
	DeltaBatches int `json:"delta_batches,omitempty"`
	// Mode is how the view's contents changed: "incremental", "recompute",
	// "fallback-recompute", "restored" (from snapshot at boot), or
	// "recovered-recompute" (recomputed during recovery).
	Mode string `json:"mode"`
	// TraceID is the causal trace of the epoch that produced the entry
	// (0 when the epoch was unsampled).
	TraceID uint64 `json:"trace_id,omitempty"`
	// Fingerprint is the order-insensitive FNV-64a digest of the view's
	// contents after the refresh; "" until computed (fingerprints are
	// lazy — stamped at checkpoint time and on /lineage reads, never on
	// the refresh hot path).
	Fingerprint string `json:"fingerprint,omitempty"`
	// At is when the entry was recorded.
	At time.Time `json:"at"`
}

// ViewLineage is the exported lineage of one view: its recent entries plus
// the current high-water identity of its contents.
type ViewLineage struct {
	View string `json:"view"`
	// CurrentEpoch/LSNHi identify the newest entry; Fingerprint digests
	// the view's live contents at export time.
	CurrentEpoch uint64 `json:"current_epoch"`
	LSNHi        uint64 `json:"lsn_hi"`
	Fingerprint  string `json:"fingerprint"`
	// Entries is the bounded history, oldest first.
	Entries []LineageEntry `json:"entries"`
}

// lineageKeep bounds each view's retained lineage history.
const lineageKeep = 32

// addLineage appends one entry to the view's bounded history. Caller holds
// the scheduler mutex.
func (vs *viewState) addLineage(e LineageEntry) {
	vs.lineage = append(vs.lineage, e)
	if len(vs.lineage) > lineageKeep {
		vs.lineage = vs.lineage[len(vs.lineage)-lineageKeep:]
	}
}

// tableFingerprint digests a table's contents order-insensitively: each
// row rendered as its values joined with "|", rows sorted, FNV-64a over
// the sorted sequence. Two tables with the same multiset of rows hash
// equal regardless of physical order — which is what recovery restores.
func tableFingerprint(t *engine.Table) string {
	rows := make([]string, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		tup := t.Row(i)
		parts := make([]string, len(tup.Values))
		for j, v := range tup.Values {
			parts[j] = v.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return hexDigest(h.Sum64())
}

func hexDigest(v uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Lineage exports every view's refresh lineage. The per-view history is
// copied under the scheduler lock; the live-contents fingerprints are
// computed outside it from the served relation set.
func (s *Server) Lineage() map[string]ViewLineage {
	sc := s.sched
	sc.mu.Lock()
	out := make(map[string]ViewLineage, len(sc.views))
	for name, vs := range sc.views {
		vl := ViewLineage{View: name, Entries: append([]LineageEntry(nil), vs.lineage...)}
		if n := len(vs.lineage); n > 0 {
			last := vs.lineage[n-1]
			vl.CurrentEpoch = last.Epoch
			vl.LSNHi = last.LSNHi
		}
		out[name] = vl
	}
	sc.mu.Unlock()
	rels := s.state.Load().rels
	for name, vl := range out {
		if mv, err := rels.View(name); err == nil {
			vl.Fingerprint = tableFingerprint(mv.Table())
			out[name] = vl
		}
	}
	return out
}
