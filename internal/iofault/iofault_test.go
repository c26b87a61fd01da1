package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

func TestPointNaming(t *testing.T) {
	if got := Point("journal", OpWrite); got != "iofault.journal.write" {
		t.Fatalf("Point = %q", got)
	}
}

// TestUninstrumentedRoundTrip: with nothing armed, the wrappers behave
// exactly like the os package — open, write, sync, rename, read.
func TestUninstrumentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "x.tmp")
	final := filepath.Join(dir, "x")

	f, err := OpenFile("test", tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != tmp {
		t.Fatalf("Name = %q, want %q", f.Name(), tmp)
	}
	if n, err := f.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Rename("test", tmp, final); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile("test", final)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := WriteAtomic("test", final, []byte("bye"), true); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(final)
	if err != nil || string(b) != "bye" {
		t.Fatalf("after WriteAtomic: %q, %v", b, err)
	}
	if _, err := os.Stat(final + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("WriteAtomic left its tmp behind: %v", err)
	}
}

// writeFile writes data to path in place through the site's open and
// write points, leaving torn bytes exactly where a torn write put them.
func writeFile(site, path string, data []byte) error {
	f, err := OpenFile(site, path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// TestWriteAtomicNeverTearsPath: whichever step fails, path keeps its
// previous content; a torn write or failed sync scrubs its tmp, a
// failed rename leaves the complete tmp (what a crash there leaves).
func TestWriteAtomicNeverTearsPath(t *testing.T) {
	for _, tc := range []struct {
		op      string
		action  func() error
		want    error
		tmpLeft string // expected tmp content; "" = no tmp
	}{
		{OpOpen, NoSpace(), ErrNoSpace, ""},
		{OpWrite, PartialWrite(2, nil), ErrIO, ""},
		{OpSync, IOError(), ErrIO, ""},
		{OpRename, NoSpace(), ErrNoSpace, "new"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			if err := WriteAtomic("t", path, []byte("old"), false); err != nil {
				t.Fatal(err)
			}
			failpoint.Enable(Point("t", tc.op), tc.action)
			defer failpoint.DisableAll()
			if err := WriteAtomic("t", path, []byte("new"), true); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
				t.Fatalf("path after failed %s = %q, %v; want the previous content", tc.op, b, err)
			}
			b, err := os.ReadFile(path + ".tmp")
			if tc.tmpLeft == "" && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("tmp after failed %s = %q, %v; want none", tc.op, b, err)
			}
			if tc.tmpLeft != "" && string(b) != tc.tmpLeft {
				t.Fatalf("tmp after failed %s = %q, %v; want %q", tc.op, b, err, tc.tmpLeft)
			}
		})
	}
}

// TestDiscardRemovesTmpResidue: Discard removes the file and its tmp,
// and is a no-op on paths that do not exist.
func TestDiscardRemovesTmpResidue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, p := range []string{path, path + ".tmp"} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	Discard(path)
	Discard(path)
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived Discard: %v", p, err)
		}
	}
}

// TestInjectedFaults: each op consults its own point and only that
// point; armed ENOSPC/EIO surface through errors.Is.
func TestInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		op     string
		action func() error
		want   error
		run    func() error
	}{
		{OpOpen, NoSpace(), ErrNoSpace, func() error {
			_, err := OpenFile("t", path, os.O_WRONLY, 0o644)
			return err
		}},
		{OpWrite, NoSpace(), ErrNoSpace, func() error {
			return writeFile("t", path, []byte("zz"))
		}},
		{OpSync, IOError(), ErrIO, func() error {
			f, err := OpenFile("t", path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Sync()
		}},
		{OpRename, IOError(), ErrIO, func() error {
			return Rename("t", path, path+".moved")
		}},
		{OpRead, IOError(), ErrIO, func() error {
			_, err := ReadFile("t", path)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			failpoint.Enable(Point("t", tc.op), tc.action)
			defer failpoint.DisableAll()
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Fatalf("op %s: err = %v, want %v", tc.op, err, tc.want)
			}
		})
	}
	// The fault was site-scoped: another site stays healthy.
	failpoint.Enable(Point("other", OpRead), IOError())
	defer failpoint.DisableAll()
	if _, err := ReadFile("t", path); err != nil {
		t.Fatalf("cross-site leak: %v", err)
	}
}

// TestPartialWriteTears: an armed PartialWrite persists exactly N bytes
// to the real file, then fails with the wrapped error.
func TestPartialWriteTears(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	failpoint.Enable(Point("t", OpWrite), PartialWrite(3, nil))
	defer failpoint.DisableAll()

	err := writeFile("t", path, []byte("abcdef"))
	if !errors.Is(err, ErrIO) {
		t.Fatalf("torn write err = %v, want EIO", err)
	}
	var pw *PartialWriteError
	if !errors.As(err, &pw) || pw.N != 3 {
		t.Fatalf("err = %#v, want PartialWriteError{N:3}", err)
	}
	if !strings.Contains(pw.Error(), "torn write after 3 bytes") {
		t.Fatalf("Error() = %q", pw.Error())
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil || string(b) != "abc" {
		t.Fatalf("on-disk after tear = %q, %v; want %q", b, rerr, "abc")
	}
}

// TestPartialWriteClamps: N beyond the buffer writes the whole buffer;
// negative N writes nothing. Either way the armed error surfaces.
func TestPartialWriteClamps(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		n    int
		want string
	}{
		{"beyond", 99, "abcdef"},
		{"negative", -1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			failpoint.Enable(Point("t", OpWrite), PartialWrite(tc.n, ErrNoSpace))
			defer failpoint.DisableAll()
			if err := writeFile("t", path, []byte("abcdef")); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("err = %v, want ENOSPC", err)
			}
			b, _ := os.ReadFile(path)
			if string(b) != tc.want {
				t.Fatalf("on-disk = %q, want %q", b, tc.want)
			}
		})
	}
}

// TestOpenRealError: a genuine os failure (missing directory) comes
// back unchanged, not masked by the wrapper.
func TestOpenRealError(t *testing.T) {
	if _, err := OpenFile("t", filepath.Join(t.TempDir(), "no", "dir", "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}
