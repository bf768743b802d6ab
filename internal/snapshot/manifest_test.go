package snapshot

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// FuzzManifest: any manifest JSON is either rejected or describes every
// relation by extents that lie in a file of the generation directory, in
// range, overlapping no other extent, and summing to the entry's rows and
// bytes. The seeds are a manifest two checkpoints wrote and one in the
// version-1 layout.
func FuzzManifest(f *testing.F) {
	st, err := Open(filepath.Join(f.TempDir(), "snaps"))
	if err != nil {
		f.Fatal(err)
	}
	schema := algebra.NewSchema(algebra.Column{Relation: "R", Name: "a", Type: algebra.TypeInt})
	tb := engine.NewTable("R", schema, 4)
	for i := 0; i < 2; i++ {
		if err := tb.Insert([]algebra.Value{algebra.IntVal(int64(i))}); err != nil {
			f.Fatal(err)
		}
		if _, err := st.Checkpoint(CheckpointInput{Epoch: uint64(i), Tables: []*engine.Table{tb},
			Views: []ViewData{{Name: "V", Plan: algebra.NewScan("R", schema), Table: tb}}}); err != nil {
			f.Fatal(err)
		}
	}
	m, err := st.Manifest()
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(m.Dir(), manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"generation":3,"tables":[{"name":"R","file":"base_R.seg","rows":2,"bytes":90}],` +
		`"views":[{"name":"V","file":"view_V.seg","rows":2,"bytes":90,"def_hash":"x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		type span struct{ from, to int64 }
		byFile := make(map[string][]span)
		for _, s := range m.entries() {
			if len(s.Extents) == 0 {
				t.Fatalf("%s has no extents", s.Name)
			}
			rows, size := 0, int64(0)
			for _, e := range s.Extents {
				if filepath.Base(e.File) != e.File || !filepath.IsLocal(e.File) || e.Offset < 0 || e.Bytes <= 0 ||
					e.Offset > math.MaxInt64-e.Bytes || e.Rows < 0 {
					t.Fatalf("%s: extent out of range: %+v", s.Name, e)
				}
				rows += e.Rows
				size += e.Bytes
				byFile[e.File] = append(byFile[e.File], span{e.Offset, e.Offset + e.Bytes})
			}
			if rows != s.Rows || size != s.Bytes {
				t.Fatalf("%s: extents hold %d rows and %d bytes, the entry %d and %d", s.Name, rows, size, s.Rows, s.Bytes)
			}
		}
		for file, spans := range byFile {
			slices.SortFunc(spans, func(a, b span) int { return int(min(max(a.from-b.from, -1), 1)) })
			for i := 1; i < len(spans); i++ {
				if spans[i-1].to > spans[i].from {
					t.Fatalf("extents overlap in %s: %+v", file, spans)
				}
			}
		}
	})
}
