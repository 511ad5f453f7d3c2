package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the Store writes through. Every
// disk operation the durability argument depends on — temp-file
// creation, data fsync, atomic rename, directory fsync — goes through
// this interface, so tests can inject EIO/ENOSPC, truncate writes, or
// "crash" between any two calls and prove the store's invariants hold
// (DESIGN.md §14). Production uses OSFS.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making completed renames and
	// removals durable (data fsync alone does not persist the directory
	// entry pointing at it).
	SyncDir(dir string) error
}

// File is one writable file handle handed out by FS.Create.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
}

// OSFS is the production FS: the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteAtomic durably publishes the bytes write produces at path: it
// creates tmp, streams into it, fsyncs and closes it, renames it over
// path, and fsyncs path's directory. tmp must be on the same
// filesystem as path (in practice: the same directory) so the rename
// is atomic.
//
// Durability contract: when WriteAtomic returns nil, the complete file
// is durable at path. If the writer crashes (or the disk fails) at any
// earlier point, path either does not exist or still holds its
// previous complete contents — a truncated or torn file can never
// appear at path. A failure before the rename removes tmp (best
// effort); a crash can still leave it behind, which is dead weight,
// not a hazard: it was never visible at path, and a rerun replaces it.
// A failed directory fsync is reported as an error even though the
// rename happened, because the new entry may not survive a power loss.
//
// This is the one temp → fsync → rename → directory-fsync
// implementation: Store.Put and core.Sim.CheckpointFile both write
// through it, so every durable file write is fault-injectable through
// fsys.
func WriteAtomic(fsys FS, tmp, path string, write func(io.Writer) error) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create temp %s: %w", tmp, err)
	}
	werr := write(f)
	serr := f.Sync()
	cerr := f.Close()
	if werr == nil {
		werr = serr
	}
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: write temp %s: %w", tmp, werr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: sync dir after publishing %s: %w", path, err)
	}
	return nil
}
