package logger

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// recordWire is the JSON shape served by TailHandler.
type recordWire struct {
	Seq   uint64 `json:"seq"`
	Time  string `json:"time"`
	Level string `json:"level"`
	Msg   string `json:"msg"`
}

// TailHandler serves the ring tail as a JSON array, newest records
// last. `?n=` bounds the count (default: everything retained); a
// non-numeric or negative n is a 400. Mount it on a private mux --
// the tail is an operator surface, not a public API.
func (l *Logger) TailHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		recs := l.Tail(n)
		out := make([]recordWire, len(recs))
		for i, rec := range recs {
			out[i] = recordWire{
				Seq:   rec.Seq,
				Time:  rec.Time.Format("2006-01-02T15:04:05.999999999Z07:00"),
				Level: rec.Level.String(),
				Msg:   rec.Msg,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
