package aar

import (
	"fmt"
	"path/filepath"
	"testing"

	"flowkv/internal/window"
)

func TestStoreLevelCheckpointRestore(t *testing.T) {
	src := openTest(t, Options{WriteBufferBytes: 256})
	w1 := window.Window{Start: -100, End: 0} // negative boundaries too
	w2 := window.Window{Start: 0, End: 100}
	for i := 0; i < 30; i++ {
		src.Append([]byte(fmt.Sprintf("k%d", i%4)), []byte(fmt.Sprintf("v%02d", i)), w1)
		src.Append([]byte(fmt.Sprintf("k%d", i%4)), []byte(fmt.Sprintf("u%02d", i)), w2)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{Dir: filepath.Join(t.TempDir(), "restored")})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.restoreFrom(ckpt); err != nil {
		t.Fatal(err)
	}
	if dst.LiveWindows() != 2 {
		t.Fatalf("restored LiveWindows = %d, want 2", dst.LiveWindows())
	}
	for _, tc := range []struct {
		w      window.Window
		prefix string
	}{{w1, "v"}, {w2, "u"}} {
		want := drain(t, src, tc.w)
		got := drain(t, dst, tc.w)
		if len(got) != len(want) {
			t.Fatalf("window %v: %d keys, want %d", tc.w, len(got), len(want))
		}
		for k, vs := range want {
			if len(got[k]) != len(vs) {
				t.Fatalf("window %v key %s: %v want %v", tc.w, k, got[k], vs)
			}
			for i := range vs {
				if got[k][i] != vs[i] {
					t.Fatalf("window %v key %s[%d]: %q want %q", tc.w, k, i, got[k][i], vs[i])
				}
			}
		}
	}
	// Restored store keeps accepting appends into the restored windows.
	w3 := window.Window{Start: 100, End: 200}
	if err := dst.Append([]byte("new"), []byte("x"), w3); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, dst, w3); len(got["new"]) != 1 {
		t.Fatalf("post-restore window: %v", got)
	}
}

func TestRestoreIntoDirtyStoreFails(t *testing.T) {
	src := openTest(t, Options{})
	src.Append([]byte("k"), []byte("v"), window.Window{Start: 0, End: 100})
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := src.checkpointTo(ckpt, nil, ""); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Append([]byte("x"), []byte("y"), window.Window{Start: 0, End: 100})
	if err := dirty.restoreFrom(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointClosed(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if _, err := s.checkpointTo(t.TempDir(), nil, ""); err != ErrClosed {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Restore(nil); err != ErrClosed {
		t.Errorf("Restore: %v", err)
	}
}

func TestParseWindowFileName(t *testing.T) {
	cases := []struct {
		name string
		want window.Window
		ok   bool
	}{
		{"win_0_100.log", window.Window{Start: 0, End: 100}, true},
		{"win_-100_0.log", window.Window{Start: -100, End: 0}, true},
		{"win_5_10", window.Window{}, false},
		{"data-000001.log", window.Window{}, false},
		{"win_x_y.log", window.Window{}, false},
	}
	for _, tc := range cases {
		got, ok := parseWindowFileName(tc.name)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseWindowFileName(%q) = %v,%v; want %v,%v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	// Round trip with the producer.
	w := window.Window{Start: 12345, End: 67890}
	got, ok := parseWindowFileName(windowFileName(w))
	if !ok || got != w {
		t.Errorf("round trip = %v,%v", got, ok)
	}
}
