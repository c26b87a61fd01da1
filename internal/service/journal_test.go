package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Kind: KindRetime, Bench: "INPUT(a)"}
	res := &Result{Retime: &RetimeResult{Bench: "x", PrefixTests: 2}}
	entries := []journalEntry{
		{Event: evSubmit, ID: "job-000001", Time: time.Now(), Req: req},
		{Event: evStart, ID: "job-000001", Attempt: 1},
		{Event: evDone, ID: "job-000001", Result: res},
		{Event: evSubmit, ID: "job-000002", Req: req},
		{Event: evStart, ID: "job-000002", Attempt: 1},
		{Event: evSubmit, ID: "job-000003", Req: req},
	}
	for _, e := range entries {
		if err := j.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jobs, maxID, skipped := replayJournal(f)
	if skipped != 0 {
		t.Fatalf("skipped %d lines of a clean journal", skipped)
	}
	if maxID != 3 {
		t.Fatalf("maxID = %d, want 3", maxID)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	if jobs[0].Status != StatusDone || jobs[0].Result.Retime.PrefixTests != 2 {
		t.Fatalf("job 1 replayed as %+v", jobs[0])
	}
	if jobs[1].Status != StatusQueued || jobs[1].Attempt != 1 {
		t.Fatalf("in-flight job 2 replayed as status %s attempt %d", jobs[1].Status, jobs[1].Attempt)
	}
	if jobs[2].Status != StatusQueued || jobs[2].Attempt != 0 {
		t.Fatalf("never-started job 3 replayed as status %s attempt %d", jobs[2].Status, jobs[2].Attempt)
	}
}

func TestJournalReplayTolerant(t *testing.T) {
	// Torn writes, corruption, orphan events, duplicate submits, unknown
	// events: replay recovers the parseable prefix and never fails.
	journal := strings.Join([]string{
		`{"event":"submit","id":"job-000001","req":{"kind":"retime","bench":"b"}}`,
		`garbage not json`,
		`{"event":"done","id":"job-000007"}`, // orphan: submit never survived
		`{"event":"submit","id":"job-000001","req":{"kind":"atpg","bench":"b"}}`, // duplicate
		`{"event":"mystery","id":"job-000001"}`,                                  // unknown event
		`{"event":"start","id":"job-000001","attempt":2}`,                        // attempt jumps forward
		`{"event":"failed","id":"job-000001","error":"boom"}`,
		``,
		`{"event":"submit","id":"job-00`, // torn final write
	}, "\n")
	jobs, maxID, skipped := replayJournal(strings.NewReader(journal))
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.Status != StatusFailed || j.Error != "boom" {
		t.Fatalf("job replayed as %q/%q", j.Status, j.Error)
	}
	if j.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (journal said so)", j.Attempt)
	}
	if j.Req.Kind != KindRetime {
		t.Fatal("duplicate submit overwrote the original request")
	}
	if maxID != 7 {
		t.Fatalf("maxID = %d, want 7 (orphan IDs still advance the counter)", maxID)
	}
	if skipped != 5 {
		t.Fatalf("skipped = %d, want 5 (garbage, orphan, duplicate, unknown, torn)", skipped)
	}
}

func TestJobIDNumber(t *testing.T) {
	cases := []struct {
		id   string
		want int64
	}{
		{"job-000123", 123},
		{"job-1", 1},
		{"job-", 0},
		{"task-5", 0},
		{"job--5", 0},
		{"job-notanumber", 0},
	}
	for _, c := range cases {
		if got := jobIDNumber(c.id); got != c.want {
			t.Errorf("jobIDNumber(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}

// FuzzJournalReplay is the crash-recovery contract: whatever bytes a
// dying process left in the journal -- torn lines, interleaved garbage,
// hostile JSON -- replay must return without panicking, and replayed
// jobs must always carry a request.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"event":"submit","id":"job-000001","req":{"kind":"retime","bench":"b"}}` + "\n"))
	f.Add([]byte(`{"event":"done","id":"job-000001","result":{}}` + "\n{\"event\":"))
	f.Add([]byte("\n\n\x00\xff{]["))
	f.Add([]byte(`{"event":"start","id":"job-000001","attempt":-4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, maxID, _ := replayJournal(strings.NewReader(string(data)))
		if maxID < 0 {
			t.Fatalf("negative maxID %d", maxID)
		}
		for _, j := range jobs {
			if j.Req == nil {
				t.Fatalf("replayed job %s has no request", j.ID)
			}
			if j.ID == "" {
				t.Fatal("replayed job with empty ID")
			}
		}
	})
}
