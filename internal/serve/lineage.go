package serve

import (
	"time"
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
// the chaos suite verifies against journal replay. That check holds within
// one binary: the digest's format is the engine's (Table.Fingerprint), and
// nothing compares a recorded digest with a live one across binaries — a
// restored entry reports the manifest's mark verbatim.

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
	// Fingerprint is set on "restored" entries only: the digest of the
	// persisted contents that the checkpoint recorded in the manifest,
	// reported verbatim. Every other entry leaves it "" — the digest of the
	// live contents is ViewLineage.Fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// At is when the entry was recorded.
	At time.Time `json:"at"`
}

// ViewLineage is the exported lineage of one view: its recent entries plus
// the current high-water identity of its contents.
type ViewLineage struct {
	View string `json:"view"`
	// CurrentEpoch/LSNHi identify the newest entry; Fingerprint digests
	// the view's live contents at export time (engine Table.Fingerprint,
	// cached on the table and carried through its incremental appends).
	CurrentEpoch uint64 `json:"current_epoch"`
	LSNHi        uint64 `json:"lsn_hi"`
	Fingerprint  string `json:"fingerprint"`
	// Entries is the bounded history, oldest first.
	Entries []LineageEntry `json:"entries"`
}

// lineageKeep bounds each view's retained lineage history.
const lineageKeep = 32

// hexDigest renders a table's Fingerprint as the 16 hex digits lineage
// reports.
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
			vl.Fingerprint = hexDigest(mv.Table().Fingerprint())
			out[name] = vl
		}
	}
	return out
}
