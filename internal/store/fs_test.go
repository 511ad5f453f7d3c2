package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"upcbh/internal/arena"
)

// writeContainer publishes container(key "k", step) at path through
// WriteAtomic, with path+".tmp" as the temp name.
func writeContainer(t *testing.T, fsys FS, path string, step int) error {
	t.Helper()
	data := container(t, "k", step)
	return WriteAtomic(fsys, path+".tmp", path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// TestWriteAtomicReplaces pins the durability contract's visible half:
// a successful write leaves no temp file behind, and overwriting an
// existing file goes through rename (the old contents are never
// truncated in place — at every instant the path holds one complete
// container).
func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := writeContainer(t, OSFS, path, 1); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different step: must succeed and replace.
	if err := writeContainer(t, OSFS, path, 2); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after a successful write", e.Name())
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := arena.ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Step != 2 {
		t.Fatalf("replaced container carries step %d, want 2", c.Header.Step)
	}
}

// TestWriteAtomicFailureKeepsPrevious: when the write cannot complete
// (here: the temp path is a directory, so Create fails), the previous
// container at path is untouched.
func TestWriteAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := writeContainer(t, OSFS, path, 5); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeContainer(t, OSFS, path, 6); err == nil {
		t.Fatal("write through a blocked temp path succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write perturbed the previous container")
	}
}

// TestWriteAtomicFaults fails each step of the publish in turn. Every
// failure is an error carrying the injected cause. A failure before the
// rename leaves the previous file byte-identical and no temp behind; a
// failed directory fsync comes after the rename, so the new file is in
// place but the write is still reported as not durable.
func TestWriteAtomicFaults(t *testing.T) {
	cases := []struct {
		name         string
		inject       func(*faultFS)
		beforeRename bool
	}{
		{"Create", func(f *faultFS) { f.failCreate = syscall.EACCES }, true},
		{"Write", func(f *faultFS) { f.writeErr = syscall.ENOSPC }, true},
		{"Sync", func(f *faultFS) { f.failSync = syscall.EIO }, true},
		{"Rename", func(f *faultFS) { f.failRename = syscall.EIO }, true},
		{"SyncDir", func(f *faultFS) { f.failSyncDir = syscall.EIO }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := newFaultFS()
			dir := t.TempDir()
			path := filepath.Join(dir, "ckpt.bin")
			if err := writeContainer(t, ffs, path, 1); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			ffs.set(tc.inject)
			err = writeContainer(t, ffs, path, 2)
			if err == nil {
				t.Fatalf("write with a failing %s succeeded", tc.name)
			}
			var errno syscall.Errno
			if !errors.As(err, &errno) {
				t.Fatalf("error %v does not carry the injected cause", err)
			}

			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.beforeRename {
				if !bytes.Equal(before, after) {
					t.Fatal("failed write perturbed the previous file")
				}
			} else if !bytes.Equal(after, container(t, "k", 2)) {
				t.Fatal("renamed file does not hold the new contents")
			}
			for _, name := range listDir(t, dir) {
				if strings.HasSuffix(name, ".tmp") {
					t.Fatalf("failed write left temp file %s behind", name)
				}
			}
		})
	}
}
