package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/core"
	"flowkv/internal/window"
)

// TestFileKindKnowsEveryCheckpointFile takes a real checkpoint (with
// application metadata, then quarantined) of each store pattern and
// requires that `flowkvctl ls` would name every file in it, and in the
// live store directory next to it — no "unknown" rows.
func TestFileKindKnowsEveryCheckpointFile(t *testing.T) {
	for _, tc := range []struct {
		pattern core.Pattern
		kind    window.Kind
		// want is a kind this pattern's checkpoint must contain.
		want string
	}{
		{core.PatternAAR, window.Fixed, "aar-window-seg"},
		{core.PatternAUR, window.Session, "aur-stat-stream-seg"},
		{core.PatternRMW, window.Fixed, "rmw-delta-stream-seg"},
	} {
		t.Run(tc.pattern.String(), func(t *testing.T) {
			base := t.TempDir()
			st, err := core.OpenPattern(tc.pattern, tc.kind, core.Options{
				Dir: filepath.Join(base, "store"), Instances: 2, WriteBufferBytes: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Destroy()
			w := window.Window{Start: 0, End: 100}
			for i := 0; i < 50; i++ {
				key, val := []byte(fmt.Sprintf("k%02d", i)), []byte("value")
				if tc.pattern == core.PatternRMW {
					err = st.PutAggregate(key, w, val)
				} else {
					err = st.Append(key, val, w, int64(i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			ck := filepath.Join(base, "ck")
			if err := st.CheckpointWithMeta(ck, []byte("meta")); err != nil {
				t.Fatal(err)
			}
			if err := core.QuarantineCheckpoint(nil, ck, "test"); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				kind := fileKind(d.Name())
				if kind == "unknown" {
					t.Errorf("ls prints unknown for %s", path)
				}
				seen[kind] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{tc.want, "segment-manifest", "checkpoint-manifest", "app-metadata", "quarantine-marker"} {
				if !seen[k] {
					t.Errorf("no %s file in the checkpoint (kinds seen: %v)", k, seen)
				}
			}
		})
	}
}
