package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setupFloorS is the absolute part of setup_s's bound: a set-up time
// may grow by the bound's share or by this many seconds, whichever is
// larger, before it counts as a regression.
const setupFloorS = 0.1

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges change runs b against parent runs a for one metric by
// the pairing protocol: regressed when b's median is worse than a's by
// more than the bound; unresolved when either side's own spread exceeds
// the bound, unless every b run beats every a run; better when b wins
// at least nine tenths of the pairs and the medians differ by more than
// a's interquartile distance; no worse otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64, isSetup bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	aq1, amed, aq3 := quartiles(a)
	_, bmed, _ := quartiles(b)
	allowed := bound * math.Abs(amed)
	if isSetup {
		allowed = max(allowed, setupFloorS)
	}
	gain := sign * (bmed - amed) // > 0: b is better
	wins, n := 0, min(len(a), len(b))
	for i := 0; i < n; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && gain > aq3-aq1:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case -gain > allowed:
		return "regressed"
	case 10*wins >= 9*n && gain > aq3-aq1:
		return "better"
	}
	return "no worse"
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles over its passed runs and the verdict under
// BENCHMARK.json's bounds, or "failed" if either side has a failed run.
func runCompare(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-16s %-38s %-38s %s\n", "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "verdict")
	for _, wl := range workloadNames {
		fa, fb := failedRuns(a, wl), failedRuns(b, wl)
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 && len(vb) == 0 && fa+fb == 0 {
				continue
			}
			v := verdict(va, vb, m.Better == "lower", m.Bound, m.Name == "setup_s")
			if fa+fb > 0 {
				v = fmt.Sprintf("failed (%d parent, %d change runs)", fa, fb)
			}
			fmt.Fprintf(w, "%-13s %-16s %-38s %-38s %s\n", wl, m.Name, describe(va), describe(vb), v)
		}
	}
	return nil
}

// failedRuns counts one workload's untraced runs in which a job or a
// check failed. Their metrics leave out the failed jobs, so they are
// not compared: any failed run makes the workload's verdict "failed".
func failedRuns(recs []*runRecord, workload string) int {
	n := 0
	for _, r := range recs {
		if r.Workload == workload && !r.Trace && !r.passed() {
			n++
		}
	}
	return n
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

// values collects one metric of one workload's passed untraced runs, in
// file order (the pairing order).
func values(recs []*runRecord, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace || !r.passed() {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func readRecords(path string) ([]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &r)
	}
	return recs, sc.Err()
}
