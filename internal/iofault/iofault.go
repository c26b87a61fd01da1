// Package iofault is the injectable filesystem layer under every
// durability path in this repository: the job journal, the ATPG
// checkpoint writer and the result cache's disk tier all perform their
// writes through it instead of calling the os package directly. In
// production it is a zero-cost veneer -- every operation is one inert
// failpoint check in front of the real syscall -- but chaos tests (and
// RETEST_FAILPOINTS env arming) can make any site's opens, writes,
// syncs, renames or reads fail with ENOSPC, EIO, or a torn partial
// write, which is exactly the weather a long-running test-generation
// service has to keep producing byte-identical results through.
//
// Every consumer names its site ("journal", "checkpoint", "cache"), and
// each operation consults the failpoint "iofault.<site>.<op>", so a
// test can fill the disk under only the journal while the checkpoint
// path stays healthy:
//
//	failpoint.Enable(iofault.Point("journal", iofault.OpWrite), iofault.NoSpace())
//
// or, from the environment for CLI-level chaos runs:
//
//	RETEST_FAILPOINTS="iofault.journal.write=enospc"
//
// Partial (torn) writes are armed with PartialWrite: the wrapped file
// really writes the first n bytes before failing, so the on-disk state
// afterwards is genuinely torn, not merely missing -- the case the
// journal's replay tolerance and the checkpoint/cache checksum trailers
// exist for.
package iofault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/failpoint"
)

// Operation names, the <op> part of an injection point.
const (
	OpOpen   = "open"
	OpWrite  = "write"
	OpSync   = "sync"
	OpRename = "rename"
	OpRead   = "read"
)

// Injectable errors, aliased from syscall so errors.Is matches what a
// real full disk or dying device produces.
var (
	// ErrNoSpace is ENOSPC: the disk is full.
	ErrNoSpace error = syscall.ENOSPC
	// ErrIO is EIO: the device returned an I/O error.
	ErrIO error = syscall.EIO
)

// Point names the failpoint one site's operation consults:
// "iofault.<site>.<op>".
func Point(site, op string) string { return "iofault." + site + "." + op }

// NoSpace returns a failpoint action that fails with ENOSPC.
func NoSpace() func() error { return failpoint.Err(ErrNoSpace) }

// IOError returns a failpoint action that fails with EIO.
func IOError() func() error { return failpoint.Err(ErrIO) }

// PartialWriteError instructs a File.Write to tear: write the first N
// bytes for real, then fail with Err. It unwraps to Err so callers'
// errors.Is checks see the underlying fault.
type PartialWriteError struct {
	N   int
	Err error
}

func (e *PartialWriteError) Error() string {
	return fmt.Sprintf("iofault: torn write after %d bytes: %v", e.N, e.Err)
}

func (e *PartialWriteError) Unwrap() error { return e.Err }

// PartialWrite returns a failpoint action arming a torn write: the next
// Write at the site persists only the first n bytes, then fails with
// err (ErrIO when nil). The bytes genuinely reach the file, so the
// caller's recovery logic faces real torn state, not a clean absence.
func PartialWrite(n int, err error) func() error {
	if err == nil {
		err = ErrIO
	}
	return func() error { return &PartialWriteError{N: n, Err: err} }
}

// File wraps an *os.File whose Write and Sync consult the site's
// failpoints. Close is deliberately uninstrumented: every consumer
// treats close failures identically to sync failures, and the sync
// point already covers that path.
type File struct {
	f    *os.File
	site string
}

// OpenFile is os.OpenFile behind the site's open failpoint.
func OpenFile(site, name string, flag int, perm os.FileMode) (*File, error) {
	if err := failpoint.Inject(Point(site, OpOpen)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &File{f: f, site: site}, nil
}

// Name returns the name of the underlying file.
func (f *File) Name() string { return f.f.Name() }

// Write writes p behind the site's write failpoint. An armed
// PartialWriteError really writes its first N bytes (clamped to len(p))
// before failing, leaving genuinely torn bytes on disk.
func (f *File) Write(p []byte) (int, error) {
	if err := failpoint.Inject(Point(f.site, OpWrite)); err != nil {
		var pw *PartialWriteError
		if errors.As(err, &pw) {
			n := pw.N
			if n > len(p) {
				n = len(p)
			}
			if n < 0 {
				n = 0
			}
			wrote, werr := f.f.Write(p[:n])
			if werr != nil {
				return wrote, werr
			}
			return wrote, pw
		}
		return 0, err
	}
	return f.f.Write(p)
}

// Sync flushes the file behind the site's sync failpoint.
func (f *File) Sync() error {
	if err := failpoint.Inject(Point(f.site, OpSync)); err != nil {
		return err
	}
	return f.f.Sync()
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }

// WriteAtomic durably replaces path with data, the one tmp+rename
// writer behind every durable file in this repository: write
// path+".tmp", fsync, close, rename over path, and -- when syncDir --
// fsync the directory so the rename itself survives a crash. Every
// step goes through the site's failpoints. A failed write or sync
// removes its torn tmp; a failed rename leaves the complete tmp behind,
// exactly what a crash at that point leaves. path itself is never torn:
// it holds either its previous content or data.
func WriteAtomic(site, path string, data []byte, syncDir bool) error {
	tmp := path + ".tmp"
	f, err := OpenFile(site, tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := Rename(site, tmp, path); err != nil {
		return err
	}
	if syncDir {
		// Best-effort: a lost rename merely resurfaces the previous file.
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// Discard deletes path and any .tmp residue an interrupted WriteAtomic
// left beside it.
func Discard(path string) {
	os.Remove(path)
	os.Remove(path + ".tmp")
}

// ReadFile is os.ReadFile behind the site's read failpoint.
func ReadFile(site, name string) ([]byte, error) {
	if err := failpoint.Inject(Point(site, OpRead)); err != nil {
		return nil, err
	}
	return os.ReadFile(name)
}

// Rename is os.Rename behind the site's rename failpoint.
func Rename(site, oldpath, newpath string) error {
	if err := failpoint.Inject(Point(site, OpRename)); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}
