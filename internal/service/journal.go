package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/iofault"
	"repro/internal/logger"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// The job journal is an append-only JSON-lines file recording every job
// lifecycle transition: one entry per line, in commit order. On startup
// the service replays it to rebuild the store -- terminal jobs reappear
// with their results, jobs that were queued or running at crash time
// are re-queued -- so a servd restart loses no accepted work.
//
// Journal events:
//
//	{"event":"submit","id":"job-000001","time":...,"req":{...}}
//	{"event":"start","id":"job-000001","time":...,"attempt":1}
//	{"event":"done","id":"job-000001","time":...,"result":{...}}
//	{"event":"failed","id":"job-000001","time":...,"error":"..."}
//	{"event":"cancelled","id":"job-000001","time":...}
//
// Replay is deliberately forgiving: unparsable lines (torn final write
// after a crash, stray corruption) are skipped and counted, never
// fatal, and events for IDs with no surviving submit entry are dropped.
const (
	evSubmit    = "submit"
	evStart     = "start"
	evDone      = "done"
	evFailed    = "failed"
	evCancelled = "cancelled"
)

// Failpoint names instrumenting the journal for chaos tests.
const (
	// fpJournalBeforeWrite fires before an entry is written; an error
	// action simulates a crash before the write reached disk (the entry
	// is lost), a panic action a crash taking the worker down with it.
	fpJournalBeforeWrite = "journal.before-write"
	// fpJournalAfterWrite fires after an entry hit the file, modeling a
	// crash between the journal write and the in-memory state update.
	fpJournalAfterWrite = "journal.after-write"
)

// journalIOFaultSite names the journal's iofault site: chaos tests arm
// iofault.Point(journalIOFaultSite, op) to fail journal IO with
// ENOSPC/EIO/torn writes.
const journalIOFaultSite = "journal"

// Journal breaker settings: the first failed write opens it, and a
// degraded journal re-probes the disk this often.
const (
	journalFailThreshold = 1
	journalProbeEvery    = 2 * time.Second
)

// journalEntry is one line of the journal.
type journalEntry struct {
	Event   string    `json:"event"`
	ID      string    `json:"id"`
	Time    time.Time `json:"time"`
	Attempt int       `json:"attempt,omitempty"`
	Req     *Request  `json:"req,omitempty"`
	Result  *Result   `json:"result,omitempty"`
	Error   string    `json:"error,omitempty"`
	// ReqID is the HTTP request ID that carried the submission (submit
	// events only), so recovered jobs keep their log correlation.
	ReqID string `json:"req_id,omitempty"`
}

// journal owns the append file. Appends are serialized by mu so entries
// never interleave; each entry is one marshal + one write, optionally
// followed by an fsync.
//
// Journal IO failures degrade durability, never availability. A
// retry.Breaker (threshold 1) guards the disk: the first failed write
// opens it and flips the journal into degraded (memory-only) mode --
// jobs keep running and their in-memory state stays correct, but
// lifecycle entries are dropped (counted as journal.dropped_entries)
// instead of being retried on every transition against a disk that is
// plainly sick. Once the breaker's cooldown elapses an append doubles
// as a probe: the file handle is reopened (a stale fd does not outlive
// a remount) and a lone newline is written first, terminating whatever
// torn line the original failure left so replay's skip-bad-lines
// tolerance contains the damage to that one line. The first probe that
// succeeds closes the breaker and drops back to durable mode
// (journal.recovered). The journal.degraded gauge tracks the state for
// /metrics.
type journal struct {
	mu      sync.Mutex
	f       *iofault.File
	path    string
	sync    bool
	reg     *metrics.Registry
	log     *logger.Logger // nil-safe
	br      *retry.Breaker
	dropped int64 // entries lost while degraded (also a counter)
}

func openJournal(path string, syncEach bool, reg *metrics.Registry, log *logger.Logger) (*journal, error) {
	f, err := iofault.OpenFile(journalIOFaultSite, path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &journal{f: f, path: path, sync: syncEach, reg: reg, log: log,
		br: retry.NewBreaker(journalFailThreshold, journalProbeEvery)}, nil
}

// append commits one entry. A failpoint-injected error at before-write
// simulates the write never reaching disk. The returned error reports
// a durability loss for THIS entry (the caller counts it); a nil
// return while degraded means the entry was deliberately dropped.
func (j *journal) append(e journalEntry) error {
	if err := failpoint.Inject(fpJournalBeforeWrite); err != nil {
		return err
	}
	// Per-event variant ("journal.before-write.done") so chaos tests can
	// lose, say, only terminal entries -- the crashed-after-compute case.
	if err := failpoint.Inject(fpJournalBeforeWrite + "." + e.Event); err != nil {
		return err
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: marshal journal entry: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.br.Tripped() {
		j.probe(e, b)
		return nil
	}
	if err := j.write(b); err != nil {
		j.br.Failure(time.Now())
		j.reg.Gauge("journal.degraded").Set(1)
		j.log.Warnf("id=%s job=%s journal degraded (memory-only): %s write failed: %v; re-probing every %s",
			e.ReqID, e.ID, e.Event, err, j.br.Cooldown)
		return fmt.Errorf("service: write journal: %w", err)
	}
	return failpoint.Inject(fpJournalAfterWrite)
}

// write pushes one marshalled line through the current handle,
// honoring the sync-each-entry setting. Caller holds mu.
func (j *journal) write(b []byte) error {
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// probe runs a degraded append: the entry is dropped unless the
// breaker lets a probe through, in which case the file is reopened, any
// torn tail repaired, and the entry written for real. Caller holds mu.
func (j *journal) probe(e journalEntry, b []byte) {
	now := time.Now()
	if !j.br.Allow(now) {
		j.drop()
		return
	}
	f, err := iofault.OpenFile(journalIOFaultSite, j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.br.Failure(now)
		j.drop()
		return
	}
	old := j.f
	j.f = f
	// Terminate whatever torn line the original failure left behind: an
	// empty line is skipped by replay, a half line would otherwise fuse
	// with this entry and corrupt both.
	werr := j.write([]byte("\n"))
	if werr == nil {
		werr = j.write(b)
	}
	if werr != nil {
		j.f = old
		f.Close()
		j.br.Failure(now)
		j.drop()
		return
	}
	old.Close()
	j.br.Success()
	j.reg.Gauge("journal.degraded").Set(0)
	j.reg.Counter("journal.recovered").Inc()
	j.log.Warnf("id=%s job=%s journal recovered to durable mode; %d entries dropped while degraded",
		e.ReqID, e.ID, j.dropped)
	j.dropped = 0
}

// drop counts an entry lost while degraded. Caller holds mu.
func (j *journal) drop() {
	j.dropped++
	j.reg.Counter("journal.dropped_entries").Inc()
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// replayedJob is one job reconstructed from the journal.
type replayedJob struct {
	ID      string
	Req     *Request
	ReqID   string // originating HTTP request ID, from the submit event
	Status  Status // StatusQueued marks an in-flight job to re-queue
	Result  *Result
	Error   string
	Attempt int // start events seen so far
	Created time.Time
}

// maxJournalLine bounds one journal line on replay; submissions carry
// whole bench circuits, so this is generous (the HTTP layer rejects
// larger payloads long before they reach the journal).
const maxJournalLine = 64 << 20

// replayJournal parses a journal stream into per-job outcomes, in
// first-submit order. It returns the highest numeric job ID seen (to
// restart the ID counter past every journaled job) and the number of
// lines it had to skip: unparsable lines and events without a matching
// submit. It never fails on malformed input -- a recovering service
// must come up on whatever prefix of the journal survived the crash.
func replayJournal(r io.Reader) (jobs []*replayedJob, maxID int64, skipped int) {
	byID := make(map[string]*replayedJob)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
			skipped++
			continue
		}
		if n := jobIDNumber(e.ID); n > maxID {
			maxID = n
		}
		j := byID[e.ID]
		if j == nil {
			if e.Event != evSubmit || e.Req == nil {
				skipped++ // event for a job whose submit never survived
				continue
			}
			j = &replayedJob{ID: e.ID, Req: e.Req, ReqID: e.ReqID, Status: StatusQueued, Created: e.Time}
			byID[e.ID] = j
			jobs = append(jobs, j)
			continue
		}
		switch e.Event {
		case evSubmit:
			// Duplicate submit for a live ID: keep the first, skip.
			skipped++
		case evStart:
			j.Attempt++
			if e.Attempt > j.Attempt {
				j.Attempt = e.Attempt
			}
		case evDone:
			j.Status, j.Result = StatusDone, e.Result
		case evFailed:
			j.Status, j.Error = StatusFailed, e.Error
		case evCancelled:
			j.Status = StatusCancelled
		default:
			skipped++
		}
	}
	// A scanner error (over-long or truncated tail) ends replay at the
	// last good line; everything before it is already recovered.
	if sc.Err() != nil {
		skipped++
	}
	return jobs, maxID, skipped
}

// jobIDNumber extracts the numeric suffix of "job-000123" IDs; 0 for
// anything else.
func jobIDNumber(id string) int64 {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
