// Package snapshot is the durable columnar snapshot store: it checkpoints
// base tables and materialized views as CRC-framed segments (see
// internal/engine's segment format) under an atomically-committed JSON
// manifest, and recovers the newest consistent generation on restart.
//
// Layout under the store directory:
//
//	gen-0000000000000001/
//	    pack-0000000000000001.seg   what this checkpoint wrote: segments, end to end
//	    MANIFEST.json               commit record — written last, fsync+rename
//	gen-0000000000000002/
//	    pack-0000000000000001.seg   hard link: the same file as generation 1's
//	    pack-0000000000000002.seg   the rows new since generation 1
//	    MANIFEST.json
//
// A manifest lists each relation as an ordered list of extents — {file,
// offset, bytes, rows}, one segment of a pack each — and recovery reads a
// relation's extents back into one table. A checkpoint writes exactly one
// pack, holding only what is new: for a relation that extends the table the
// store last persisted under its name (engine.Table.Extends), the rows past
// that table, as one extent; every other relation (an aggregate merge, a
// recompute, the first checkpoint of a process) whole. A relation of n rows
// holds at most ⌈log2 n⌉+1 extents: when one more would break that bound,
// the new rows are re-encoded together with every trailing extent that
// holds no more rows than all the extents after it and the new rows do,
// which leaves each extent holding more rows than all later ones together
// — at most ⌊log2 n⌋+1 of them. The earlier packs a manifest names are
// hard-linked into its generation directory, so every generation holds each
// file it names, and GC and retention remove whole directories as before.
// Version-1 manifests, which named one segment file per relation, still
// restore.
//
// A generation without a manifest never happened: the pack is written
// first, the manifest is staged to a temp file, fsynced, and renamed into
// place, and the directory is fsynced — so a crash at any point leaves
// either no manifest (the half-written generation is swept as debris) or a
// complete one. Recovery walks generations newest-first and uses the first
// one whose manifest parses; inside a chosen generation, base tables
// restore all-or-nothing while each view falls back to recomputation
// independently (definition-hash mismatch, corrupt extent, injected replay
// fault). Corruption is an event (obs.EvSnapshotCorrupt), never a failed
// boot.
package snapshot

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

const (
	manifestName    = "MANIFEST.json"
	genPrefix       = "gen-"
	packPrefix      = "pack-"
	tmpSuffix       = ".tmp"
	manifestVersion = 2
)

// Extent is a run of a relation's rows, persisted as one segment of a pack.
type Extent struct {
	// File is the pack's file name within the generation directory.
	File string `json:"file"`
	// Offset and Bytes locate the segment in the pack.
	Offset int64 `json:"offset"`
	Bytes  int64 `json:"bytes"`
	// Rows is the segment's row count.
	Rows int `json:"rows"`
}

// Segment is one persisted table's manifest entry.
type Segment struct {
	// Name is the base table (or view) name.
	Name string `json:"name"`
	// File is a version-1 manifest's segment file, which held the relation
	// whole; reading the manifest turns it into the one extent it is.
	File string `json:"file,omitempty"`
	// Rows is the persisted row count, the sum of the extents' rows.
	Rows int `json:"rows"`
	// Bytes is the sum of the extents' sizes.
	Bytes int64 `json:"bytes"`
	// Extents hold the relation's rows, in order.
	Extents []Extent `json:"extents,omitempty"`
	// Stats is the table's derived catalog entry at checkpoint time, so
	// recovery primes the cost model without rescanning restored rows.
	// Advisory: a missing or implausible sidecar just means the stats are
	// recomputed lazily — never a corruption event.
	Stats *SegmentStats `json:"stats,omitempty"`
}

// SegmentStats is the statistics sidecar persisted with a segment: the
// exact engine.TableStats entry for the persisted rows, minus the schema
// (the restored table's live schema is re-attached on install).
type SegmentStats struct {
	Rows            float64                      `json:"rows"`
	Blocks          float64                      `json:"blocks"`
	UpdateFrequency float64                      `json:"update_frequency"`
	Attrs           map[string]catalog.AttrStats `json:"attrs"`
}

// statsOf captures a table's catalog entry as a manifest sidecar — none when
// a NaN or an infinity is among its numbers, or a string that is not valid
// UTF-8 among its bounds, which JSON cannot carry (it would restore with
// U+FFFD in each bad byte): the restored table then derives its statistics
// on first use.
func statsOf(scratch *engine.StatsScratch, name string, t *engine.Table) *SegmentStats {
	rel := scratch.Derive(name, t)
	nums := []float64{rel.Rows, rel.Blocks, rel.UpdateFrequency}
	for _, a := range rel.Attrs {
		if !utf8.ValidString(a.Min.Str) || !utf8.ValidString(a.Max.Str) {
			return nil
		}
		nums = append(append(nums, a.DistinctValues, a.Min.Float, a.Max.Float), a.Histogram...)
	}
	for _, f := range nums {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
	}
	return &SegmentStats{
		Rows:            rel.Rows,
		Blocks:          rel.Blocks,
		UpdateFrequency: rel.UpdateFrequency,
		Attrs:           rel.Attrs,
	}
}

// install primes a restored table with the sidecar's statistics; the
// engine rejects entries that do not match the table's identity and sizes.
func (s *SegmentStats) install(name string, t *engine.Table) {
	if s == nil {
		return
	}
	t.InstallStats(&catalog.Relation{
		Name:            name,
		Rows:            s.Rows,
		Blocks:          s.Blocks,
		UpdateFrequency: s.UpdateFrequency,
		Attrs:           s.Attrs,
	})
}

// LineageMark is the lineage watermark a checkpoint stamps on a view
// segment: which epoch and journal LSN the persisted contents correspond
// to, and the order-insensitive fingerprint of those contents. Recovery
// hands the mark back to the serving layer, which seeds the restored
// view's lineage with it — so lineage survives a crash-restart and the
// restored rows can be verified against the recorded fingerprint.
type LineageMark struct {
	Epoch       uint64 `json:"epoch"`
	LSN         uint64 `json:"lsn"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// ViewSegment is a materialized view's manifest entry.
type ViewSegment struct {
	Segment
	// DefHash fingerprints the view's defining plan (structural key). A
	// restart whose live design hashes differently recomputes the view
	// instead of restoring rows that answer a different query.
	DefHash string `json:"def_hash"`
	// Epoch is the maintenance epoch the view had reached when persisted.
	Epoch uint64 `json:"epoch"`
	// Lineage fields: the epoch/LSN/fingerprint watermark of the persisted
	// contents (zero values on manifests written before lineage existed).
	LineageEpoch       uint64 `json:"lineage_epoch,omitempty"`
	LineageLSN         uint64 `json:"lineage_lsn,omitempty"`
	LineageFingerprint string `json:"lineage_fingerprint,omitempty"`
}

// Manifest is a generation's commit record.
type Manifest struct {
	// Version is the manifest format; a version-1 manifest reads as version
	// 2, one extent per relation.
	Version    int       `json:"version"`
	Generation uint64    `json:"generation"`
	CreatedAt  time.Time `json:"created_at"`
	// Epoch is the serving layer's maintenance epoch at checkpoint time.
	Epoch uint64 `json:"epoch"`
	// Watermark is the highest journal LSN whose rows are contained in
	// this snapshot; recovery replays only records past it.
	Watermark uint64        `json:"watermark"`
	Tables    []Segment     `json:"tables"`
	Views     []ViewSegment `json:"views"`

	dir string // generation directory, set on load
}

// Dir returns the generation directory the manifest was loaded from
// (empty for manifests not yet committed).
func (m *Manifest) Dir() string { return m.dir }

// TotalBytes sums the bytes of every extent the manifest lists: what the
// generation holds.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for _, s := range m.entries() {
		n += s.Bytes
	}
	return n
}

// entries is every table and view entry of the manifest.
func (m *Manifest) entries() []*Segment {
	out := make([]*Segment, 0, len(m.Tables)+len(m.Views))
	for i := range m.Tables {
		out = append(out, &m.Tables[i])
	}
	for i := range m.Views {
		out = append(out, &m.Views[i].Segment)
	}
	return out
}

// parseManifest decodes a manifest and checks what recovery relies on:
// every entry is named once, and its extents lie in files of the
// generation directory, have sane offsets and sizes, sum to the entry's
// rows and bytes, and overlap no other extent. A version-1 entry becomes
// the one extent its file is.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Version != 1 && m.Version != manifestVersion {
		return nil, fmt.Errorf("snapshot: unknown manifest version %d", m.Version)
	}
	names := make(map[string]bool)
	var all []Extent
	for _, s := range m.entries() {
		if s.Name == "" || names[s.Name] {
			return nil, fmt.Errorf("snapshot: manifest entry %q is empty or repeated", s.Name)
		}
		names[s.Name] = true
		if m.Version == 1 {
			if len(s.Extents) > 0 {
				return nil, fmt.Errorf("snapshot: version-1 entry %s lists extents", s.Name)
			}
			s.Extents, s.File = []Extent{{File: s.File, Bytes: s.Bytes, Rows: s.Rows}}, ""
		}
		if s.File != "" || len(s.Extents) == 0 {
			return nil, fmt.Errorf("snapshot: entry %s names no extents", s.Name)
		}
		rows, size := 0, int64(0)
		for _, e := range s.Extents {
			if !filepath.IsLocal(e.File) || filepath.Base(e.File) != e.File || e.Offset < 0 || e.Bytes <= 0 ||
				e.Bytes > math.MaxInt64-e.Offset || e.Bytes > math.MaxInt64-size || e.Rows < 0 || e.Rows > math.MaxInt-rows {
				return nil, fmt.Errorf("snapshot: entry %s has an extent out of range: %+v", s.Name, e)
			}
			rows += e.Rows
			size += e.Bytes
		}
		if rows != s.Rows || size != s.Bytes {
			return nil, fmt.Errorf("snapshot: entry %s holds %d rows and %d bytes, its extents %d and %d",
				s.Name, s.Rows, s.Bytes, rows, size)
		}
		all = append(all, s.Extents...)
	}
	slices.SortFunc(all, func(a, b Extent) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Offset, b.Offset))
	})
	for i := 1; i < len(all); i++ {
		if prev := all[i-1]; prev.File == all[i].File && prev.Offset+prev.Bytes > all[i].Offset {
			return nil, fmt.Errorf("snapshot: extents overlap in %s at offset %d", prev.File, all[i].Offset)
		}
	}
	m.Version = manifestVersion
	return &m, nil
}

// View returns the manifest entry for one view, if present.
func (m *Manifest) View(name string) (ViewSegment, bool) {
	for _, v := range m.Views {
		if v.Name == name {
			return v, true
		}
	}
	return ViewSegment{}, false
}

// DefHash fingerprints a view's defining plan: the first 16 bytes of
// SHA-256 over its structural key, hex-encoded. Two plans share a hash
// iff they are structurally identical.
func DefHash(plan algebra.Node) string {
	sum := sha256.Sum256([]byte(algebra.StructuralKey(plan)))
	return hex.EncodeToString(sum[:16])
}

// Store is a snapshot store rooted at one directory. The zero value is not
// usable; call Open. Methods are not safe for concurrent use with each
// other — the serving layer serializes checkpoints under its maintenance
// lock, and recovery runs before the store is shared.
type Store struct {
	dir  string
	inj  *fault.Injector
	obsv obs.Observer

	ctrCheckpoints *obs.Counter
	ctrCorrupt     *obs.Counter
	ctrRestored    *obs.Counter

	// last is what the generation this store committed last, in lastDir,
	// holds of each relation, by name (a table and a view never share one).
	// Empty until this process commits a checkpoint and after one fails, so
	// that the next writes every relation whole.
	last    map[string]persisted
	lastDir string
	// stats is the working memory of the statistics sidecars, kept across
	// checkpoints so that a steady one allocates no slots.
	stats engine.StatsScratch
}

// persisted is one relation as a committed generation holds it: the table
// it was and the extents it is.
type persisted struct {
	mark    engine.Mark
	extents []Extent
}

// Open creates (if needed) the store directory and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("snapshot: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: creating store directory: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// SetInjector arms fault injection at the store's crash-point sites
// (segment write, manifest write/rename, replay); nil disables.
func (st *Store) SetInjector(in *fault.Injector) { st.inj = in }

// SetObserver wires snapshot events and counters; nil disables.
func (st *Store) SetObserver(o obs.Observer) {
	st.obsv = o
	st.ctrCheckpoints = obs.CounterOf(o, obs.CtrSnapshotCheckpoints)
	st.ctrCorrupt = obs.CounterOf(o, obs.CtrSnapshotCorrupt)
	st.ctrRestored = obs.CounterOf(o, obs.CtrSnapshotRestoredViews)
}

func (st *Store) emitCorrupt(artifact string, err error) {
	st.ctrCorrupt.Inc()
	obs.Emit(st.obsv, obs.EvSnapshotCorrupt,
		obs.String("artifact", artifact), obs.String("error", err.Error()))
}

// ViewData is one materialized view handed to Checkpoint.
type ViewData struct {
	Name string
	Plan algebra.Node
	// Table is the view's current stored table (a consistent copy or the
	// live table — Checkpoint only reads it).
	Table *engine.Table
	// Epoch is the view's maintenance epoch at capture time.
	Epoch uint64
	// Lineage is the view's lineage watermark at capture time (zero when
	// the caller does not track lineage).
	Lineage LineageMark
}

// CheckpointInput is everything one checkpoint persists.
type CheckpointInput struct {
	// Epoch is the serving layer's maintenance epoch.
	Epoch uint64
	// Watermark is the highest journal LSN folded into the tables.
	Watermark uint64
	Tables    []*engine.Table
	Views     []ViewData
}

// CheckpointResult reports a committed checkpoint.
type CheckpointResult struct {
	Generation uint64
	// Bytes is what the generation holds: the bytes of every extent its
	// manifest lists.
	Bytes int64
	// Written is what this checkpoint wrote: the size of its pack.
	Written  int64
	Duration time.Duration
	// ViewBytes is the bytes each persisted view's extents hold.
	ViewBytes map[string]int64
}

// nextGeneration scans existing generation directories and returns one
// past the highest (committed or not — debris still claims its number so
// a new generation never collides with a half-written directory).
func (st *Store) nextGeneration() (uint64, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, fmt.Errorf("snapshot: listing store: %w", err)
	}
	var max uint64
	for _, e := range entries {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), genPrefix+"%d", &g); err == nil && g > max {
			max = g
		}
	}
	return max + 1, nil
}

func genDirName(g uint64) string { return fmt.Sprintf(genPrefix+"%016d", g) }

func packName(g uint64) string { return fmt.Sprintf(packPrefix+"%016d.seg", g) }

// pack is the one file a checkpoint writes, built in memory: segments end to
// end.
type pack struct {
	file string
	buf  []byte
}

func (p *pack) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	return len(b), nil
}

// add appends t's rows to the pack as one segment and returns its extent.
func (p *pack) add(t *engine.Table) (Extent, error) {
	off := len(p.buf)
	n, err := engine.WriteTableSegment(p, t)
	return Extent{File: p.file, Offset: int64(off), Bytes: n, Rows: t.NumRows()}, err
}

// extents persists t as a list of extents. When t extends the table prev
// recorded, prev's extents hold its first rows and only the rows past them
// are encoded, as an extent of their own — or, when that would take t past
// maxExtents, together with every trailing extent that holds no more rows
// than all the extents after it and the new rows do. Otherwise t is encoded
// whole.
func (p *pack) extents(prev persisted, t *engine.Table) ([]Extent, error) {
	n, keep := t.NumRows(), 0
	held := 0
	for _, e := range prev.extents {
		held += e.Rows
	}
	if held > 0 && t.Extends(prev.mark) {
		if held == n {
			return prev.extents, nil
		}
		keep = len(prev.extents)
		if keep+1 > maxExtents(n) {
			for after, i := n-held, keep-1; i >= 0; i-- {
				if prev.extents[i].Rows <= after {
					keep = i
				}
				after += prev.extents[i].Rows
			}
		}
	}
	exts := slices.Clone(prev.extents[:keep])
	lo := 0
	for _, e := range exts {
		lo += e.Rows
	}
	if lo > 0 {
		t = t.Slice(lo, n)
	}
	e, err := p.add(t)
	return append(exts, e), err
}

// maxExtents is how many extents a relation of n rows may have: ⌈log2 n⌉+1.
func maxExtents(n int) int { return bits.Len(uint(max(n, 1)-1)) + 1 }

// writePack writes the pack to the generation directory and fsyncs it. The
// pack is serialized to memory first so the SiteSnapshotSegmentWrite crash
// point can leave a *genuinely* torn file — half the real bytes — rather
// than a synthetic error with an intact file. A checkpoint with nothing new
// writes no pack.
func (st *Store) writePack(dir string, p *pack) error {
	if len(p.buf) == 0 {
		return nil
	}
	path := filepath.Join(dir, p.file)
	if err := st.inj.Hit(fault.SiteSnapshotSegmentWrite); err != nil {
		// Simulated crash mid-write: flush a torn prefix and bail.
		_ = os.WriteFile(path, p.buf[:len(p.buf)/2], 0o644)
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(p.buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkPacks hard-links every earlier pack the manifest names into dir, from
// the generation the store committed last.
func (st *Store) linkPacks(dir string, m *Manifest, own string) error {
	linked := map[string]bool{own: true}
	for _, s := range m.entries() {
		for _, e := range s.Extents {
			if linked[e.File] {
				continue
			}
			linked[e.File] = true
			if err := os.Link(filepath.Join(st.lastDir, e.File), filepath.Join(dir, e.File)); err != nil {
				return fmt.Errorf("snapshot: linking %s: %w", e.File, err)
			}
		}
	}
	return nil
}

// Checkpoint persists one consistent generation: the pack first, then the
// manifest via stage-fsync-rename. It returns only after the commit is
// durable. On any error the half-written generation is left without a
// manifest — invisible to recovery, swept by the next GC — and the next
// checkpoint writes every relation whole.
func (st *Store) Checkpoint(in CheckpointInput) (*CheckpointResult, error) {
	res, err := st.checkpoint(in)
	if err != nil {
		st.last, st.lastDir = nil, ""
	}
	return res, err
}

func (st *Store) checkpoint(in CheckpointInput) (*CheckpointResult, error) {
	start := time.Now()
	gen, err := st.nextGeneration()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(st.dir, genDirName(gen))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: creating generation: %w", err)
	}
	m := &Manifest{
		Version:    manifestVersion,
		Generation: gen,
		CreatedAt:  time.Now().UTC(),
		Epoch:      in.Epoch,
		Watermark:  in.Watermark,
	}
	p := &pack{file: packName(gen)}
	next := make(map[string]persisted, len(in.Tables)+len(in.Views))
	entry := func(name string, t *engine.Table) (Segment, error) {
		exts, err := p.extents(st.last[name], t)
		if err != nil {
			return Segment{}, fmt.Errorf("snapshot: writing %s: %w", name, err)
		}
		next[name] = persisted{mark: t.Mark(), extents: exts}
		s := Segment{Name: name, Rows: t.NumRows(), Extents: exts, Stats: statsOf(&st.stats, name, t)}
		for _, e := range exts {
			s.Bytes += e.Bytes
		}
		return s, nil
	}
	for _, t := range in.Tables {
		s, err := entry(t.Name, t)
		if err != nil {
			return nil, err
		}
		m.Tables = append(m.Tables, s)
	}
	for _, v := range in.Views {
		s, err := entry(v.Name, v.Table)
		if err != nil {
			return nil, err
		}
		m.Views = append(m.Views, ViewSegment{
			Segment:            s,
			DefHash:            DefHash(v.Plan),
			Epoch:              v.Epoch,
			LineageEpoch:       v.Lineage.Epoch,
			LineageLSN:         v.Lineage.LSN,
			LineageFingerprint: v.Lineage.Fingerprint,
		})
	}
	if err := st.writePack(dir, p); err != nil {
		return nil, fmt.Errorf("snapshot: writing %s: %w", p.file, err)
	}
	if err := st.linkPacks(dir, m, p.file); err != nil {
		return nil, err
	}
	if err := st.commitManifest(dir, m); err != nil {
		return nil, err
	}
	st.last, st.lastDir = next, dir
	res := &CheckpointResult{
		Generation: gen,
		Bytes:      m.TotalBytes(),
		Written:    int64(len(p.buf)),
		Duration:   time.Since(start),
		ViewBytes:  make(map[string]int64, len(m.Views)),
	}
	for _, v := range m.Views {
		res.ViewBytes[v.Name] = v.Bytes
	}
	st.ctrCheckpoints.Inc()
	return res, nil
}

// commitManifest stages the manifest JSON next to its final name, fsyncs,
// renames, and fsyncs the directory — the generation's atomic commit point.
func (st *Store) commitManifest(dir string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(dir, manifestName+tmpSuffix)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: staging manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Crash point: manifest staged, commit rename not yet performed — the
	// generation is still invisible to recovery.
	if err := st.inj.Hit(fault.SiteSnapshotManifestWrite); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("snapshot: committing manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	// Crash point: the commit landed but post-commit work (journal
	// truncation, GC) has not run — recovery must tolerate the overlap.
	if err := st.inj.Hit(fault.SiteSnapshotManifestRename); err != nil {
		return err
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: syncing dir: %w", err)
	}
	return nil
}

// generations lists generation numbers present on disk, ascending.
func (st *Store) generations() ([]uint64, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: listing store: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), genPrefix+"%d", &g); err == nil && g > 0 {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// GC removes committed generations beyond the newest `retain` and every
// uncommitted (manifest-less) generation directory older than the newest
// committed one — crash debris. Returns how many directories were removed.
func (st *Store) GC(retain int) (int, error) {
	if retain < 1 {
		retain = 1
	}
	gens, err := st.generations()
	if err != nil {
		return 0, err
	}
	// Find committed generations (those with a manifest file).
	var committed []uint64
	byGen := make(map[uint64]bool)
	for _, g := range gens {
		if _, err := os.Stat(filepath.Join(st.dir, genDirName(g), manifestName)); err == nil {
			committed = append(committed, g)
			byGen[g] = true
		}
	}
	removed := 0
	keepFloor := uint64(0)
	if len(committed) > retain {
		keepFloor = committed[len(committed)-retain]
	}
	var newestCommitted uint64
	if len(committed) > 0 {
		newestCommitted = committed[len(committed)-1]
	}
	for _, g := range gens {
		drop := false
		if byGen[g] {
			drop = g < keepFloor
		} else {
			// Manifest-less debris: only sweep it once a newer committed
			// generation exists, so an in-flight checkpoint's directory
			// (always the newest) is never pulled out from under it.
			drop = g < newestCommitted
		}
		if drop {
			if err := os.RemoveAll(filepath.Join(st.dir, genDirName(g))); err != nil {
				return removed, fmt.Errorf("snapshot: removing generation %d: %w", g, err)
			}
			removed++
		}
	}
	return removed, nil
}

// Manifest returns the newest loadable manifest, or nil if no committed
// generation exists. A manifest that fails to parse is reported as corrupt
// and skipped in favor of the next-older generation.
func (st *Store) Manifest() (*Manifest, error) {
	gens, err := st.generations()
	if err != nil {
		return nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		dir := filepath.Join(st.dir, genDirName(gens[i]))
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // uncommitted generation
		}
		if err != nil {
			st.emitCorrupt(path, err)
			continue
		}
		m, err := parseManifest(data)
		if err != nil {
			st.emitCorrupt(path, err)
			continue
		}
		m.dir = dir
		return m, nil
	}
	return nil, nil
}

// packReader reads extents out of one generation's packs, opening each
// file once, into one reused buffer: a relation's extents at a time (a
// decoded table shares no bytes with its segments).
type packReader struct {
	dir   string
	files map[string]*os.File
	sizes map[string]int64
	buf   []byte
}

func newPackReader(m *Manifest) *packReader {
	return &packReader{dir: m.dir, files: make(map[string]*os.File), sizes: make(map[string]int64)}
}

func (r *packReader) close() {
	for _, f := range r.files {
		f.Close()
	}
}

// read returns the bytes of every extent, in order. Every failure — a
// missing pack or one that ends before an extent — wraps
// engine.ErrSegmentCorrupt.
func (r *packReader) read(exts []Extent) ([][]byte, error) {
	var total int64
	for _, e := range exts {
		f, ok := r.files[e.File]
		if !ok {
			var err error
			if f, err = os.Open(filepath.Join(r.dir, e.File)); err != nil {
				return nil, fmt.Errorf("%w: %v", engine.ErrSegmentCorrupt, err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("%w: %v", engine.ErrSegmentCorrupt, err)
			}
			r.files[e.File], r.sizes[e.File] = f, fi.Size()
		}
		if r.sizes[e.File] < e.Offset+e.Bytes {
			return nil, fmt.Errorf("%w: %s ends before its extent at %d", engine.ErrSegmentCorrupt, e.File, e.Offset)
		}
		total += e.Bytes
	}
	if int64(cap(r.buf)) < total {
		r.buf = make([]byte, total)
	}
	segs := make([][]byte, len(exts))
	var off int64
	for i, e := range exts {
		segs[i] = r.buf[off : off+e.Bytes]
		off += e.Bytes
		if _, err := r.files[e.File].ReadAt(segs[i], e.Offset); err != nil {
			return nil, fmt.Errorf("%w: reading %s at %d: %v", engine.ErrSegmentCorrupt, e.File, e.Offset, err)
		}
	}
	return segs, nil
}

// load reads one relation's extents back into one table and installs its
// statistics sidecar. Every failure, an injected replay fault included, is
// the caller's cue to recompute instead, and is reported as corruption.
func (st *Store) load(r *packReader, s Segment) (*engine.Table, error) {
	t, err := st.decode(r, s)
	if err != nil {
		st.emitCorrupt(fmt.Sprintf("%s (%s)", s.Name, r.dir), err)
		return nil, err
	}
	s.Stats.install(s.Name, t)
	return t, nil
}

func (st *Store) decode(r *packReader, s Segment) (*engine.Table, error) {
	if err := st.inj.Hit(fault.SiteSnapshotReplay); err != nil {
		return nil, err
	}
	segs, err := r.read(s.Extents)
	if err != nil {
		return nil, err
	}
	rows := make([]int, len(s.Extents))
	for i, e := range s.Extents {
		rows[i] = e.Rows
	}
	return engine.DecodeTableSegments(segs, rows)
}

// LoadBase restores every base table in the manifest. All-or-nothing: one
// corrupt base extent fails the whole call (base tables feed every view;
// a partial base restore cannot produce a consistent warehouse).
func (st *Store) LoadBase(m *Manifest) ([]*engine.Table, error) {
	r := newPackReader(m)
	defer r.close()
	return st.loadBase(r, m)
}

func (st *Store) loadBase(r *packReader, m *Manifest) ([]*engine.Table, error) {
	out := make([]*engine.Table, 0, len(m.Tables))
	for _, s := range m.Tables {
		t, err := st.load(r, s)
		if err != nil {
			return nil, fmt.Errorf("snapshot: base table %s: %w", s.Name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// LoadView restores one view's table from the manifest's generation.
func (st *Store) LoadView(m *Manifest, name string) (*engine.Table, error) {
	vs, ok := m.View(name)
	if !ok {
		return nil, fmt.Errorf("snapshot: view %s not in manifest", name)
	}
	r := newPackReader(m)
	defer r.close()
	return st.load(r, vs.Segment)
}

// DropViewSnapshot removes the named view's entries from every committed
// generation's manifest, so a dropped view can never be restored. Each
// touched manifest is rewritten through the same stage-fsync-rename commit
// as a checkpoint. The view's extents stay in their packs — other relations
// share the files — as dead bytes until GC removes the last generation that
// holds them. Implements engine.SnapshotDropper.
func (st *Store) DropViewSnapshot(name string) error {
	delete(st.last, name)
	gens, err := st.generations()
	if err != nil {
		return err
	}
	for _, g := range gens {
		dir := filepath.Join(st.dir, genDirName(g))
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		m, err := parseManifest(data)
		if err != nil {
			// A corrupt manifest can't resurrect anything; leave it to GC.
			st.emitCorrupt(path, err)
			continue
		}
		keep := slices.DeleteFunc(slices.Clone(m.Views), func(v ViewSegment) bool { return v.Name == name })
		if len(keep) == len(m.Views) {
			continue
		}
		m.Views = keep
		if err := st.commitManifest(dir, m); err != nil {
			return err
		}
	}
	return nil
}
