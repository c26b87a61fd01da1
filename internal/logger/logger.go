// Package logger is a fixed-capacity, lock-light ring-buffer log for
// the long-running server processes (cmd/servd, cmd/workerd): the last
// N structured records are always in memory, retrievable over HTTP
// (`GET /v1/logs?n=`), and writing a record in steady state costs one
// atomic add, one per-slot mutex handoff and zero allocations -- heavy
// request traffic cannot turn logging into a bottleneck or a GC source.
//
// There is deliberately no global lock and no I/O on the write path.
// Writers reserve a slot with a single atomic sequence increment and
// then publish under that slot's own mutex, so two writers contend only
// when the ring wraps onto the same slot; the tail reader snapshots
// slots one at a time and never blocks the whole ring. Records below
// the configured minimum level are dropped after one atomic load.
package logger

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log records by severity.
type Level int32

// Levels, least to most severe.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String renders the level in access-log notation.
func (l Level) String() string {
	switch l {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Error:
		return "ERROR"
	}
	return fmt.Sprintf("LEVEL(%d)", int32(l))
}

// ParseLevel parses a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("logger: unknown level %q (want debug, info, warn or error)", s)
}

// Record is one log entry. Seq is the global publish order (1-based):
// the ring keeps the records with the highest Seq, and a tail reader
// sorts by it to restore order across slots.
type Record struct {
	Seq   uint64
	Time  time.Time
	Level Level
	Msg   string
}

// slot is one ring cell. The per-slot mutex makes concurrent writers
// and the tail reader race-free without any global lock; the Seq guard
// keeps a lagging writer (one that reserved its sequence number before
// the ring lapped it) from clobbering a newer record.
type slot struct {
	mu  sync.Mutex
	rec Record
}

// Ring sizes: DefaultCapacity when a caller passes 0, and at most
// MaxCapacity records (the daemons' -log-buffer bound).
const (
	DefaultCapacity = 4096
	MaxCapacity     = 1 << 20
)

// Logger is the ring buffer. A nil *Logger is a valid no-op logger:
// every method is nil-safe, so wiring code never needs to guard call
// sites.
type Logger struct {
	min   atomic.Int32
	seq   atomic.Uint64
	slots []slot
	mask  uint64
}

// New returns a ring holding the most recent capacity records (rounded
// up to a power of two, at most MaxCapacity; 0 selects DefaultCapacity)
// at or above lv.
func New(lv Level, capacity int) *Logger {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1 << bits.Len(uint(min(capacity, MaxCapacity)-1))
	l := &Logger{slots: make([]slot, n), mask: uint64(n - 1)}
	l.min.Store(int32(lv))
	return l
}

// Cap returns the ring capacity (0 for a nil logger).
func (l *Logger) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// SetLevel changes the minimum recorded level at runtime.
func (l *Logger) SetLevel(min Level) {
	if l != nil {
		l.min.Store(int32(min))
	}
}

// Enabled reports whether records at lv are currently kept. Callers
// building expensive messages should check it first.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && int32(lv) >= l.min.Load()
}

// Log records one message. This is the steady-state path: one atomic
// add, one slot mutex, no allocations (the message string is stored as
// passed).
func (l *Logger) Log(lv Level, msg string) {
	if !l.Enabled(lv) {
		return
	}
	n := l.seq.Add(1)
	now := time.Now()
	s := &l.slots[(n-1)&l.mask]
	s.mu.Lock()
	if s.rec.Seq < n {
		s.rec = Record{Seq: n, Time: now, Level: lv, Msg: msg}
	}
	s.mu.Unlock()
}

// Logf records a formatted message (allocates; use Log with a
// caller-built string on hot paths).
func (l *Logger) Logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.Log(lv, fmt.Sprintf(format, args...))
}

// Leveled fronts.

// Debugf records a formatted message at Debug.
func (l *Logger) Debugf(format string, args ...any) { l.Logf(Debug, format, args...) }

// Infof records a formatted message at Info.
func (l *Logger) Infof(format string, args ...any) { l.Logf(Info, format, args...) }

// Warnf records a formatted message at Warn.
func (l *Logger) Warnf(format string, args ...any) { l.Logf(Warn, format, args...) }

// Errorf records a formatted message at Error.
func (l *Logger) Errorf(format string, args ...any) { l.Logf(Error, format, args...) }

// Tail returns up to n of the most recent records in publish order
// (oldest first). n <= 0 or n > Cap returns everything retained.
func (l *Logger) Tail(n int) []Record {
	if l == nil {
		return nil
	}
	if n <= 0 || n > len(l.slots) {
		n = len(l.slots)
	}
	out := make([]Record, 0, len(l.slots))
	for i := range l.slots {
		s := &l.slots[i]
		s.mu.Lock()
		r := s.rec
		s.mu.Unlock()
		if r.Seq != 0 {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b Record) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		}
		return 0
	})
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
