package logger

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestLevelString(t *testing.T) {
	cases := []struct {
		lv   Level
		want string
	}{
		{Debug, "DEBUG"}, {Info, "INFO"}, {Warn, "WARN"}, {Error, "ERROR"},
		{Level(42), "LEVEL(42)"},
	}
	for _, c := range cases {
		if got := c.lv.String(); got != c.want {
			t.Errorf("Level(%d).String() = %q, want %q", c.lv, got, c.want)
		}
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in      string
		want    Level
		wantErr bool
	}{
		{"debug", Debug, false},
		{"INFO", Info, false},
		{"Warn", Warn, false},
		{"warning", Warn, false},
		{"error", Error, false},
		{"verbose", Info, true},
		{"", Info, true},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseLevel(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if got != c.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLogAndTailOrder(t *testing.T) {
	l := New(Debug, 16)
	for i := 0; i < 10; i++ {
		l.Logf(Info, "msg-%d", i)
	}
	recs := l.Tail(0)
	if len(recs) != 10 {
		t.Fatalf("Tail(0) returned %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("msg-%d", i); r.Msg != want {
			t.Errorf("record %d: Msg = %q, want %q", i, r.Msg, want)
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: Seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Time.IsZero() {
			t.Errorf("record %d: zero timestamp", i)
		}
	}
	// Tail(n) keeps the newest n.
	last3 := l.Tail(3)
	if len(last3) != 3 || last3[0].Msg != "msg-7" || last3[2].Msg != "msg-9" {
		t.Fatalf("Tail(3) = %v, want msg-7..msg-9", last3)
	}
}

func TestWraparound(t *testing.T) {
	const capacity = 8
	l := New(Debug, capacity)
	if l.Cap() != capacity {
		t.Fatalf("Cap() = %d, want %d", l.Cap(), capacity)
	}
	const total = 3*capacity + 5 // lap the ring three times, land mid-slot
	for i := 0; i < total; i++ {
		l.Log(Info, "m"+strconv.Itoa(i))
	}
	recs := l.Tail(0)
	if len(recs) != capacity {
		t.Fatalf("after wraparound Tail(0) has %d records, want %d", len(recs), capacity)
	}
	for i, r := range recs {
		wantSeq := uint64(total - capacity + i + 1)
		if r.Seq != wantSeq {
			t.Errorf("record %d: Seq = %d, want %d", i, r.Seq, wantSeq)
		}
		if want := "m" + strconv.Itoa(int(wantSeq)-1); r.Msg != want {
			t.Errorf("record %d: Msg = %q, want %q", i, r.Msg, want)
		}
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := New(Info, 5).Cap(); got != 8 {
		t.Errorf("New(_, 5).Cap() = %d, want 8 (next power of two)", got)
	}
	if got := New(Info, 0).Cap(); got != DefaultCapacity {
		t.Errorf("New(_, 0).Cap() = %d, want DefaultCapacity %d", got, DefaultCapacity)
	}
	if got := New(Info, 64).Cap(); got != 64 {
		t.Errorf("New(_, 64).Cap() = %d, want 64", got)
	}
	if got := New(Info, 1).Cap(); got != 1 {
		t.Errorf("New(_, 1).Cap() = %d, want 1", got)
	}
	// Requests past MaxCapacity clamp to it; rounding must not overflow
	// near MaxInt.
	for _, c := range []int{MaxCapacity, MaxCapacity + 1, 1 << 40, math.MaxInt} {
		if got := New(Info, c).Cap(); got != MaxCapacity {
			t.Errorf("New(_, %d).Cap() = %d, want MaxCapacity %d", c, got, MaxCapacity)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	l := New(Warn, 16)
	l.Debugf("dropped")
	l.Infof("dropped")
	l.Warnf("kept-warn")
	l.Errorf("kept-error")
	recs := l.Tail(0)
	if len(recs) != 2 || recs[0].Msg != "kept-warn" || recs[1].Msg != "kept-error" {
		t.Fatalf("Tail after filtering = %+v, want [kept-warn kept-error]", recs)
	}
	if l.Enabled(Info) {
		t.Error("Enabled(Info) = true with min Warn")
	}
	l.SetLevel(Debug)
	if !l.Enabled(Debug) {
		t.Error("Enabled(Debug) = false after SetLevel(Debug)")
	}
	l.Debugf("now kept")
	if recs := l.Tail(0); len(recs) != 3 {
		t.Fatalf("Tail after SetLevel = %d records, want 3", len(recs))
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Log(Error, "into the void")
	l.Errorf("also fine %d", 1)
	l.SetLevel(Debug)
	if l.Enabled(Error) {
		t.Error("nil logger Enabled(Error) = true, want false")
	}
	if l.Cap() != 0 {
		t.Error("nil logger Cap() != 0")
	}
	if recs := l.Tail(5); recs != nil {
		t.Errorf("nil logger Tail = %v, want nil", recs)
	}
}

// TestConcurrentWritersAndTail is the -race gate: N writers hammer the
// ring while a reader tails it continuously. The assertions are the
// ring invariants — tails are Seq-sorted, never exceed capacity, and
// every record is intact (message matches its writer's stamp).
func TestConcurrentWritersAndTail(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		capacity  = 64
	)
	l := New(Debug, capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs := l.Tail(0)
			if len(recs) > capacity {
				t.Errorf("tail of %d records exceeds capacity %d", len(recs), capacity)
				return
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].Seq <= recs[i-1].Seq {
					t.Errorf("tail out of order: seq %d then %d", recs[i-1].Seq, recs[i].Seq)
					return
				}
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Logf(Info, "w%d-%d", w, i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	recs := l.Tail(0)
	if len(recs) != capacity {
		t.Fatalf("final tail has %d records, want full ring of %d", len(recs), capacity)
	}
	// The newest record overall must be the globally last sequence.
	if last := recs[len(recs)-1].Seq; last != writers*perWriter {
		t.Fatalf("final Seq = %d, want %d", last, writers*perWriter)
	}
	for _, r := range recs {
		var w, i int
		if _, err := fmt.Sscanf(r.Msg, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("torn record %q: %v", r.Msg, err)
		}
		if w < 0 || w >= writers || i < 0 || i >= perWriter {
			t.Fatalf("record %q outside writer space", r.Msg)
		}
	}
}

func TestTailHandler(t *testing.T) {
	l := New(Debug, 16)
	for i := 0; i < 6; i++ {
		l.Logf(Info, "h-%d", i)
	}
	h := l.TailHandler()

	get := func(url string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr
	}

	rr := get("/v1/logs?n=3")
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out []struct {
		Seq   uint64 `json:"seq"`
		Time  string `json:"time"`
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(out) != 3 || out[0].Msg != "h-3" || out[2].Msg != "h-5" {
		t.Fatalf("tail body = %+v, want h-3..h-5", out)
	}
	if out[0].Level != "INFO" {
		t.Errorf("level = %q, want INFO", out[0].Level)
	}
	if _, err := time.Parse(time.RFC3339Nano, out[0].Time); err != nil {
		t.Errorf("timestamp %q not RFC3339Nano: %v", out[0].Time, err)
	}

	if rr := get("/v1/logs"); rr.Code != 200 {
		t.Errorf("no-n status = %d, want 200", rr.Code)
	}
	if rr := get("/v1/logs?n=bogus"); rr.Code != 400 {
		t.Errorf("bad-n status = %d, want 400", rr.Code)
	}
	if rr := get("/v1/logs?n=-1"); rr.Code != 400 {
		t.Errorf("negative-n status = %d, want 400", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/logs", nil))
	if rr.Code != 405 {
		t.Errorf("POST status = %d, want 405", rr.Code)
	}
}

// logAllocBudget pins the steady-state Log path: the Record is stored
// in a pre-allocated slot, so Log itself must not allocate. The one
// unit of headroom belongs to the caller building the message string;
// the gate keeps the whole "format into a reused buffer + Log" pattern
// at ≤1 alloc/record, the ISSUE's ring-buffer budget.
const logAllocBudget = 1

// TestLogSteadyStateAllocs is the allocation gate wired into
// scripts/check.sh (race-free stage).
func TestLogSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := New(Debug, 256)
	buf := make([]byte, 0, 64)
	var i int
	avg := testing.AllocsPerRun(1000, func() {
		buf = buf[:0]
		buf = append(buf, "steady msg "...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		i++
		l.Log(Info, string(buf)) // string() is the one allowed alloc
	})
	if avg > logAllocBudget {
		t.Fatalf("steady-state log path allocates %.1f/record, budget %d", avg, logAllocBudget)
	}
	// Log with a ready-made string must be allocation-free.
	avg = testing.AllocsPerRun(1000, func() {
		l.Log(Info, "constant message")
	})
	if avg != 0 {
		t.Fatalf("Log with prebuilt string allocates %.1f/record, want 0", avg)
	}
}
