package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sim"
)

// digestsJSON maps request keys (hex SHA-256 of a POST body) to the
// SHA-256 of the job's compact result JSON, recorded with -seed 1. The
// fig6_hot requests do not depend on the seed, so they are checked on
// every run; the others whenever a run submits a recorded request.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digest(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// checker verifies job results. Every job gets the cheap structural
// checks; results are also re-verified in process: the reported
// detections are recomputed by fault-simulating the returned vectors,
// and recorded digests must match.
type checker struct {
	digests map[string]string
	// seen collects the digests of this run's results, for -update-digests.
	seen map[string]string

	mu     sync.Mutex
	parsed map[string]*parsedCircuit // by circuit name
}

type parsedCircuit struct {
	c      *netlist.Circuit
	faults []fault.Fault
}

func newChecker(digests map[string]string) *checker {
	return &checker{digests: digests, seen: make(map[string]string), parsed: make(map[string]*parsedCircuit)}
}

// circuit parses a job's bench text as servd does and collapses its
// fault list, once per circuit.
func (ck *checker) circuit(c *circuit) (*parsedCircuit, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if p, ok := ck.parsed[c.name]; ok {
		return p, nil
	}
	nc, err := netlist.ParseBenchString("job", c.bench)
	if err != nil {
		return nil, err
	}
	faults, _ := fault.Collapse(nc)
	p := &parsedCircuit{c: nc, faults: faults}
	ck.parsed[c.name] = p
	return p, nil
}

// check verifies one successful job record, setting rec.err on a
// mismatch. simulate selects the in-process fault-simulation re-check.
func (ck *checker) check(rec *jobRecord, simulate bool) {
	if !rec.ok() {
		return
	}
	if err := ck.verify(rec, simulate); err != nil {
		rec.err = fmt.Sprintf("check %s (%s #%d): %v", rec.id, rec.job.circ.name, rec.job.n, err)
	}
}

func (ck *checker) verify(rec *jobRecord, simulate bool) error {
	d := digest(rec.result)
	ck.mu.Lock()
	ck.seen[rec.job.key] = d
	ck.mu.Unlock()
	if want, ok := ck.digests[rec.job.key]; ok && want != d {
		return fmt.Errorf("result digest %s, recorded %s", d[:16], want[:16])
	}
	var res service.Result
	if err := json.Unmarshal(rec.result, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	p, err := ck.circuit(rec.job.circ)
	if err != nil {
		return err
	}
	switch rec.job.req.Kind {
	case service.KindDeriveTests:
		if res.Derive == nil {
			return fmt.Errorf("no derive_tests result")
		}
		return checkDerive(p, res.Derive, simulate)
	case service.KindFaultSim:
		if res.FaultSim == nil {
			return fmt.Errorf("no fault_sim result")
		}
		return checkFaultSim(p, rec.job.req.Tests, res.FaultSim, simulate)
	case service.KindATPG:
		if res.ATPG == nil {
			return fmt.Errorf("no atpg result")
		}
		return checkATPG(p, res.ATPG, simulate)
	}
	return fmt.Errorf("unexpected kind %q", rec.job.req.Kind)
}

// checkDerive checks a Fig. 6 result: the derived set is the Theorem 4
// zero-fill prefix followed by the easy circuit's tests, over the
// implemented circuit's inputs, and fault-simulating it on the
// implemented circuit detects exactly the reported faults.
func checkDerive(p *parsedCircuit, r *service.DeriveResult, simulate bool) error {
	if len(r.Derived) <= r.Prefix || r.Prefix < 0 {
		return fmt.Errorf("%d derived vectors for a %d-vector prefix", len(r.Derived), r.Prefix)
	}
	if err := checkVectors(r.Derived, len(p.c.Inputs)); err != nil {
		return err
	}
	for _, v := range r.Derived[:r.Prefix] {
		if strings.ContainsRune(v, '1') {
			return fmt.Errorf("prefix vector %q is not zero-filled", v)
		}
	}
	if r.ImplFaults != len(p.faults) {
		return fmt.Errorf("impl_faults %d, collapsed fault list has %d", r.ImplFaults, len(p.faults))
	}
	if r.ImplCoverage != coverage(r.ImplDetected, r.ImplFaults) {
		return fmt.Errorf("impl_coverage %v for %d/%d", r.ImplCoverage, r.ImplDetected, r.ImplFaults)
	}
	if simulate {
		got := fsim.Run(p.c, p.faults, sim.ParseSeq(strings.Join(r.Derived, ","))).Detected()
		if got != r.ImplDetected {
			return fmt.Errorf("derived set detects %d faults, service reported %d", got, r.ImplDetected)
		}
	}
	return nil
}

// checkFaultSim checks a fault_sim result's accounting and, when
// simulate is set, recomputes it.
func checkFaultSim(p *parsedCircuit, tests string, r *service.FaultSimResult, simulate bool) error {
	seq := sim.ParseSeq(tests)
	if r.Faults != len(p.faults) || r.Vectors != len(seq) {
		return fmt.Errorf("faults/vectors %d/%d, want %d/%d", r.Faults, r.Vectors, len(p.faults), len(seq))
	}
	if r.Detected+len(r.Undetected) != r.Faults || r.Coverage != coverage(r.Detected, r.Faults) {
		return fmt.Errorf("detected %d + undetected %d != %d faults (coverage %v)", r.Detected, len(r.Undetected), r.Faults, r.Coverage)
	}
	if simulate {
		want := fsim.Run(p.c, p.faults, seq)
		var names []string
		for _, f := range want.Undetected() {
			names = append(names, f.Name(p.c))
		}
		if want.Detected() != r.Detected || !slices.Equal(names, r.Undetected) {
			return fmt.Errorf("in-process fault simulation detects %d, service reported %d", want.Detected(), r.Detected)
		}
	}
	return nil
}

// checkATPG checks an ATPG result's accounting and that its test set
// detects at least as many faults as it claims. Simulated as one
// sequence, later tests start from the state earlier ones left, which
// can detect faults the generator gave up on, so "at least".
func checkATPG(p *parsedCircuit, r *service.ATPGResult, simulate bool) error {
	if r.Faults != len(p.faults) || r.Detected+r.Redundant+r.Aborted != r.Faults {
		return fmt.Errorf("detected %d + redundant %d + aborted %d != %d collapsed faults", r.Detected, r.Redundant, r.Aborted, len(p.faults))
	}
	if err := checkVectors(r.Vectors, len(p.c.Inputs)); err != nil {
		return err
	}
	if simulate {
		got := fsim.Run(p.c, p.faults, sim.ParseSeq(strings.Join(r.Vectors, ","))).Detected()
		if got < r.Detected {
			return fmt.Errorf("test set detects %d faults, service reported %d", got, r.Detected)
		}
	}
	return nil
}

func checkVectors(vecs []string, width int) error {
	for _, v := range vecs {
		if len(v) != width || strings.Trim(v, "01") != "" {
			return fmt.Errorf("vector %q is not %d binary digits", v, width)
		}
	}
	return nil
}

func coverage(det, total int) float64 {
	if total == 0 {
		return 100
	}
	return 100 * float64(det) / float64(total)
}

// firstRound returns the digests of the first round's results, the
// set digests.json records (fig6_hot's first round repeats its warm-up
// requests, whose results were checked).
func (ck *checker) firstRound(recs []*jobRecord, roundLen int) map[string]string {
	out := make(map[string]string)
	for _, r := range recs {
		if d, ok := ck.seen[r.job.key]; ok && r.job.n <= roundLen {
			out[r.job.key] = d
		}
	}
	return out
}

// recomputeCircuit names the circuit whose first-round job every
// fig6_cold and atpg_sharded run recomputes in process, byte for byte,
// whatever the seed: the cheapest of the nine, about a second of ATPG.
const recomputeCircuit = "dk16.ji.sd"

// recompute runs a derive_tests or atpg job's pipeline in process and
// requires the service's vectors and counts back exactly.
func recompute(ctx context.Context, rec *jobRecord) error {
	var want service.Result
	if err := json.Unmarshal(rec.result, &want); err != nil {
		return err
	}
	c, err := netlist.ParseBenchString("job", rec.job.circ.bench)
	if err != nil {
		return err
	}
	opt := rec.job.req.ATPG.Options()
	if rec.job.req.Kind == service.KindDeriveTests {
		flow, err := core.Fig6FlowContext(ctx, c, opt)
		if err != nil {
			return err
		}
		if !slices.Equal(vecStrings(flow.Derived), want.Derive.Derived) || flow.ImplResult.Detected() != want.Derive.ImplDetected {
			return fmt.Errorf("in-process Fig. 6 flow derives a different test set")
		}
		return nil
	}
	faults, _ := fault.Collapse(c)
	res, err := atpg.RunContext(ctx, c, faults, opt)
	if err != nil {
		return err
	}
	det, red, ab := res.Counts()
	if !slices.Equal(vecStrings(res.TestSet), want.ATPG.Vectors) || det != want.ATPG.Detected || red != want.ATPG.Redundant || ab != want.ATPG.Aborted || res.Effort.Evals != want.ATPG.Evals {
		return fmt.Errorf("in-process ATPG generates a different test set")
	}
	return nil
}

// hotRefs holds fig6_hot's warm-up results; every timed hit must be
// byte-identical to the miss that filled the cache.
type hotRefs map[string][]byte

func (h hotRefs) check(rec *jobRecord) {
	if !rec.ok() {
		return
	}
	if want := h[rec.job.key]; !bytes.Equal(rec.result, want) {
		rec.err = fmt.Sprintf("check %s (%s): cache hit differs from its warm-up result", rec.id, rec.job.circ.name)
	}
}
