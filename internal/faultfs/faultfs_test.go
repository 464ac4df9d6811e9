package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestInjectorCountsMutatingOpsOnly(t *testing.T) {
	inj := NewInjector(OS)
	dir := t.TempDir()
	path := filepath.Join(dir, "a")

	f, err := inj.Create(path) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil { // op 2
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 3
		t.Fatal(err)
	}
	// Reads are not ops.
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // close is not an op
		t.Fatal(err)
	}
	if _, err := inj.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := inj.Ops(); got != 3 {
		t.Fatalf("ops = %d, want 3", got)
	}
}

func TestInjectorFailsNthGlobalOp(t *testing.T) {
	inj := NewInjector(OS)
	dir := t.TempDir()
	inj.SetRule(Rule{AtOp: 3})

	f, err := inj.Create(filepath.Join(dir, "a")) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrInjected) { // op 3
		t.Fatalf("op 3 err = %v, want ErrInjected", err)
	}
	if !inj.Fired() {
		t.Fatal("rule did not report fired")
	}
	// Without Crash, later ops succeed again.
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestInjectorSyncEIO(t *testing.T) {
	eio := errors.New("input/output error")
	inj := NewInjector(OS)
	inj.SetRule(Rule{Op: OpSync, Err: eio})
	f, err := inj.Create(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, eio) {
		t.Fatalf("sync err = %v, want injected EIO", err)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	inj := NewInjector(OS)
	path := filepath.Join(t.TempDir(), "a")
	f, err := inj.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("intact-")); err != nil {
		t.Fatal(err)
	}
	inj.SetRule(Rule{Op: OpWrite, TornBytes: 3, Crash: true})
	n, err := f.Write([]byte("torn-record"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write err = %v", err)
	}
	if n != 3 {
		t.Fatalf("torn write reported %d bytes, want 3", n)
	}
	f.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "intact-tor" {
		t.Fatalf("file contents = %q, want %q", b, "intact-tor")
	}
}

func TestInjectorCrashFreezesMutationsNotReads(t *testing.T) {
	inj := NewInjector(OS)
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	f, err := inj.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	inj.SetRule(Rule{Op: OpSync, Crash: true})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not crashed")
	}
	// Every later mutation fails with ErrCrashed, on this file and fresh ones.
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
	if _, err := inj.Create(filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create err = %v", err)
	}
	if err := inj.Rename(path, path+"2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename err = %v", err)
	}
	if err := inj.Remove(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash remove err = %v", err)
	}
	// Reads keep serving whatever reached the disk.
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "data" {
		t.Fatalf("post-crash read = %q, %v", buf, err)
	}
	f.Close()
	inj.Reset()
	if inj.Crashed() {
		t.Fatal("reset did not thaw the filesystem")
	}
	if err := inj.Remove(path); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorPathAndKindMatching(t *testing.T) {
	inj := NewInjector(OS)
	dir := t.TempDir()
	inj.SetRule(Rule{Op: OpWrite, PathContains: "index-", Nth: 2})

	data, err := inj.Create(filepath.Join(dir, "data-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	index, err := inj.Create(filepath.Join(dir, "index-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	defer index.Close()
	if _, err := data.Write([]byte("d1")); err != nil {
		t.Fatal(err) // wrong path: passes
	}
	if _, err := index.Write([]byte("i1")); err != nil {
		t.Fatal(err) // first match: passes
	}
	if _, err := data.Write([]byte("d2")); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Write([]byte("i2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second index write err = %v, want ErrInjected", err)
	}
}

// TestWriteFileAtomicCrashAtEachStep crashes WriteFileAtomic at every
// mutating step — create, (torn) write, fsync, rename, directory fsync —
// and checks the target holds exactly the old content until the rename
// and exactly the new content from it on: never a prefix, never empty.
// Crashing at the fsync must leave the old content, which pins the fsync
// before the rename. With no old file, the target is absent or whole.
func TestWriteFileAtomicCrashAtEachStep(t *testing.T) {
	const steps = 5 // create, write, sync, rename, syncdir
	newData := []byte(`{"tenants": ["a", "b"]}` + "\n")
	for _, old := range [][]byte{[]byte(`{"tenants": ["a"]}` + "\n"), nil} {
		for n := int64(1); n <= steps+1; n++ {
			path := filepath.Join(t.TempDir(), "TENANTS.json")
			if old != nil {
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			inj := NewInjector(OS)
			inj.SetRule(Rule{AtOp: n, Crash: true, TornBytes: 3})
			err := WriteFileAtomic(inj, path, newData)
			if fired := inj.Fired(); fired != (n <= steps) || fired != (err != nil) {
				t.Fatalf("step %d: fired=%v err=%v", n, fired, err)
			}
			got, rerr := os.ReadFile(path)
			want := old
			if n > 4 { // the rename (step 4) completed before the crash
				want = newData
			}
			switch {
			case want == nil && !errors.Is(rerr, os.ErrNotExist):
				t.Fatalf("step %d: target exists (%q, %v), want absent", n, got, rerr)
			case want != nil && string(got) != string(want):
				t.Fatalf("step %d: target holds %q (%v), want %q", n, got, rerr, want)
			}
		}
	}
}
