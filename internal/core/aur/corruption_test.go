package aur

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flowkv/internal/window"
)

// flipByte corrupts one byte in the named store file.
func flipByte(t *testing.T, dir, prefix string, frac float64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if len(e.Name()) < len(prefix) || e.Name()[:len(prefix)] != prefix {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			continue
		}
		b[int(float64(len(b))*frac)] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no %s* file found", prefix)
}

// TestDataLogCorruptionSurfacesAsError flips a byte of a value in a
// segment log.
func TestDataLogCorruptionSurfacesAsError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := Open(Options{
		Dir:              dir,
		WriteBufferBytes: 1,
		ReadBatchRatio:   0,
		Predictor:        window.SessionPredictor{Gap: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if err := s.Append(k, []byte("payload-payload"), w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, dir, segmentPrefix+"-", 0.75) // a one-batch segment's last 15 bytes are the value

	var sawErr bool
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if _, err := s.Get(k, w); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("corrupted value read back without error")
	}
}

// TestIndexLogCorruptionSurfacesAsError flips a byte of the location
// metadata the index log used to hold: the key of a segment's one batch,
// which its block carries in front of the value.
func TestIndexLogCorruptionSurfacesAsError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aur")
	s, err := Open(Options{
		Dir:              dir,
		WriteBufferBytes: 1,
		ReadBatchRatio:   0,
		Predictor:        window.SessionPredictor{Gap: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 20; i++ {
		if err := s.Append([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the key: the scan must detect it rather than return
	// partial state silently. A one-batch segment is 18 bytes: a 6-byte
	// frame header, the flush number and entry count, the key's length and
	// its three bytes from the tenth on, then window and value.
	flipByte(t, dir, segmentPrefix+"-", 0.5)

	var sawErr bool
	for i := 0; i < 20; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("k%02d", i)), w); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("corrupted key scanned without error")
	}
}
