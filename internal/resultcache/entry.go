package resultcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/frame"
	"repro/internal/iofault"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// DiskIOFaultSite names the disk tier's iofault site: chaos tests arm
// iofault.Point(DiskIOFaultSite, op) to fail entry reads and atomic
// writes with ENOSPC/EIO/torn writes.
const DiskIOFaultSite = "cache"

// Disk-tier circuit breaker settings: this many consecutive IO errors
// disable the tier, and a disabled tier is probed again once this
// cooldown has passed.
const (
	diskFailThreshold = 3
	diskProbeEvery    = 5 * time.Second
)

// On-disk entry format: a frame (magic "RESCACHE", version, FNV-1a/64
// trailer -- see package frame) that either decodes to exactly what
// was written or is discarded, around the body
//
//	key     3 x uint64 LE                 24 bytes
//	len     canonical uvarint
//	payload len bytes
//
// The encoding is canonical -- DecodeEntry accepts exactly the byte
// strings Entry.Encode produces -- so decode+encode round-trips
// byte-identically (the FuzzCacheEntryDecode invariant).

// EntryVersion is the on-disk entry format version this build reads
// and writes.
const EntryVersion = 1

// entryMagic leads every encoded cache entry.
const entryMagic = "RESCACHE"

// entryExt is the entry file suffix in a store directory.
const entryExt = ".rce"

// Entry decode errors. Decode failures wrap ErrEntryCorrupt, except a
// valid frame carrying an unknown version, which wraps ErrEntryVersion.
var (
	ErrEntryCorrupt = errors.New("resultcache: corrupt or truncated cache entry")
	ErrEntryVersion = errors.New("resultcache: unsupported cache entry version")
)

// Entry is one decoded on-disk cache record: the key it answers and the
// opaque result payload.
type Entry struct {
	Key     Key
	Payload []byte
}

// Encode serializes the entry into its canonical checksummed form.
func (e *Entry) Encode() []byte {
	buf := make([]byte, 0, 40+len(e.Payload))
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Circuit)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Faults)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Options)
	buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
	buf = append(buf, e.Payload...)
	return frame.Seal(entryMagic, EntryVersion, buf)
}

// DecodeEntry parses an encoded entry. It never panics on arbitrary
// input: every failure mode (bad magic, checksum mismatch, truncation,
// non-canonical varint, length mismatch, trailing bytes) returns an
// error wrapping ErrEntryCorrupt, except a valid frame with an unknown
// version, which wraps ErrEntryVersion.
func DecodeEntry(data []byte) (*Entry, error) {
	v, body, err := frame.Open(data, entryMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEntryCorrupt, err)
	}
	if v != EntryVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrEntryVersion, v, EntryVersion)
	}
	r := frame.NewReader(body)
	e := &Entry{}
	e.Key.Circuit = r.Fixed64()
	e.Key.Faults = r.Fixed64()
	e.Key.Options = r.Fixed64()
	n := r.Uvarint(math.MaxUint64)
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated or non-canonical payload length", ErrEntryCorrupt)
	}
	if uint64(r.Remaining()) != n {
		return nil, fmt.Errorf("%w: payload length %d, %d bytes remain",
			ErrEntryCorrupt, n, r.Remaining())
	}
	e.Payload = r.Bytes(int(n))
	return e, nil
}

// diskStore is the durable tier: one entry file per key under dir,
// written atomically and validated (or discarded) on every load.
//
// A retry.Breaker guards every IO attempt: after diskFailThreshold
// consecutive IO errors (reads and writes both count; a missing entry
// file does not) the tier disables itself -- the memory tier and the
// engines keep answering, loads miss, saves are skipped and counted as
// cache.disk_skipped -- until the breaker's cooldown lets attempts
// through again as probes. The first probe that succeeds re-enables the
// tier. The cache.disk_degraded gauge tracks the breaker state,
// disk_errors / disk_recovered count the transitions' raw material, so
// /metrics shows a sick disk long before an operator reads logs.
type diskStore struct {
	dir  string
	reg  *metrics.Registry
	logf func(format string, args ...any) // nil = silent
	br   *retry.Breaker
}

// path names the entry file for a key.
func (d *diskStore) path(k Key) string {
	return filepath.Join(d.dir, k.String()+entryExt)
}

// allowAttempt reports whether an IO attempt may proceed; a denied
// attempt counts as cache.disk_skipped.
func (d *diskStore) allowAttempt() bool {
	if d.br.Allow(time.Now()) {
		return true
	}
	d.reg.Counter("cache.disk_skipped").Inc()
	return false
}

// record feeds one attempt's outcome to the breaker. Decode failures
// and missing files must not be reported here -- only real IO errors
// open the breaker, only real IO successes close it.
func (d *diskStore) record(op string, err error) {
	if err == nil {
		if d.br.Success() {
			d.reg.Counter("cache.disk_recovered").Inc()
			d.reg.Gauge("cache.disk_degraded").Set(0)
			d.log("resultcache: disk tier recovered (probe %s ok)", op)
		}
		return
	}
	d.reg.Counter("cache.disk_errors").Inc()
	// A failed probe re-opens a breaker that was already disabled; only
	// the first crossing is a transition worth reporting.
	wasTripped := d.br.Tripped()
	if d.br.Failure(time.Now()) && !wasTripped {
		d.reg.Gauge("cache.disk_degraded").Set(1)
		d.log("resultcache: disk tier disabled after %d consecutive IO errors (last %s: %v); probing every %s",
			d.br.Threshold, op, err, d.br.Cooldown)
	}
}

func (d *diskStore) log(format string, args ...any) {
	if d.logf != nil {
		d.logf(format, args...)
	}
}

// load reads and validates the key's entry file. Anything unusable --
// torn, corrupt, version-skewed, or carrying a different key (a renamed
// file) -- is deleted along with .tmp residue so it can never be
// consulted again, and counts as cache.disk_discarded. A read IO error
// counts as cache.disk_errors and feeds the breaker.
func (d *diskStore) load(k Key) ([]byte, bool) {
	if !d.allowAttempt() {
		return nil, false
	}
	path := d.path(k)
	data, err := iofault.ReadFile(DiskIOFaultSite, path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			d.record("read", err)
		}
		return nil, false
	}
	d.record("read", nil)
	e, err := DecodeEntry(data)
	if err != nil || e.Key != k {
		d.discard(k)
		return nil, false
	}
	return e.Payload, true
}

// save atomically persists the entry through iofault.WriteAtomic. A
// crash mid-write leaves at worst a stale .tmp that the recovery sweep
// removes; a failed write scrubs its own torn .tmp. Failures count as
// cache.disk_errors and feed the breaker.
func (d *diskStore) save(k Key, payload []byte) error {
	if !d.allowAttempt() {
		return nil // breaker open: silently memory-only, counted as skipped
	}
	err := os.MkdirAll(d.dir, 0o755)
	if err == nil {
		err = iofault.WriteAtomic(DiskIOFaultSite, d.path(k), (&Entry{Key: k, Payload: payload}).Encode(), true)
	}
	d.record("write", err)
	return err
}

// discard deletes the key's entry file and any torn-write residue.
func (d *diskStore) discard(k Key) {
	iofault.Discard(d.path(k))
	d.reg.Counter("cache.disk_discarded").Inc()
}

// sweep removes crash residue from the store directory: *.rce.tmp
// torn writes, files whose name is not a well-formed key, and entries
// that fail to decode or whose embedded key disagrees with their name.
// Valid entries are left in place (they are exactly what restarts warm
// up from). Returns the number of files removed.
func (d *diskStore) sweep() int {
	removed := 0
	tmps, _ := filepath.Glob(filepath.Join(d.dir, "*"+entryExt+".tmp"))
	for _, p := range tmps {
		if os.Remove(p) == nil {
			removed++
		}
	}
	files, _ := filepath.Glob(filepath.Join(d.dir, "*"+entryExt))
	for _, p := range files {
		name := filepath.Base(p)
		k, ok := ParseKey(name[:len(name)-len(entryExt)])
		if ok {
			if data, err := os.ReadFile(p); err == nil {
				if e, err := DecodeEntry(data); err == nil && e.Key == k {
					continue
				}
			}
		}
		if os.Remove(p) == nil {
			removed++
		}
	}
	if removed > 0 {
		d.reg.Counter("cache.disk_discarded").Add(int64(removed))
	}
	return removed
}
