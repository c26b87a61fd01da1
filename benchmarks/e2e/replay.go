package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/retime"
	"repro/internal/service"
	"repro/internal/sim"
)

// lookupReps is how many cache lookups one replayed input times.
const lookupReps = 200

// replayer runs a workload's distinct inputs once more, single-threaded
// and in process, through the library's public functions, one span per
// call, and checks that they reproduce what the service returned.
type replayer struct {
	ctx context.Context
	tr  *tracer
	// durs collects span durations by span name; counts collects the
	// deterministic work counters (evaluations, backtracks, bytes).
	durs   map[string][]time.Duration
	counts map[string]int64
	// backends are the live workerds, for the dispatch replay.
	backends []string
}

func newReplayer(ctx context.Context, tr *tracer, backends []string) *replayer {
	return &replayer{ctx: ctx, tr: tr, durs: make(map[string][]time.Duration), counts: make(map[string]int64), backends: backends}
}

// replayRun is one input's replay: its root span and the first error.
type replayRun struct {
	rp    *replayer
	label string
	root  int
	err   error
}

// step runs f as a child span of the input's root; once a step failed
// the rest are skipped.
func (r *replayRun) step(name string, f func() error) {
	if r.err != nil {
		return
	}
	d := r.rp.tr.do(r.label, name, r.root, func(int) { r.err = f() })
	r.rp.durs[name] = append(r.rp.durs[name], d)
}

func (r *replayRun) parse(bench string) *netlist.Circuit {
	var c *netlist.Circuit
	r.step("netlist.parse", func() (err error) {
		r.rp.counts["netlist.parse_bytes"] += int64(len(bench))
		c, err = netlist.ParseBenchString("job", bench)
		return err
	})
	return c
}

func (r *replayRun) collapse(c func() *netlist.Circuit) []fault.Fault {
	var faults []fault.Fault
	r.step("fault.collapse", func() error {
		faults, _ = fault.Collapse(c())
		return nil
	})
	return faults
}

// cache replays the result cache's two costs for this input: deriving
// the key (collapse plus identity hashes) and a memory-tier lookup
// decoded into a service.Result, timed over lookupReps lookups.
func (r *replayRun) cache(c *netlist.Circuit, opt atpg.Options, payload []byte) {
	var key resultcache.Key
	r.step("cache.key", func() error {
		faults, _ := fault.Collapse(c)
		key = atpg.CacheKey(c, faults, opt)
		return nil
	})
	r.step("cache.lookup", func() error {
		rc := resultcache.New(resultcache.Config{})
		rc.Put(key, payload)
		for i := 0; i < lookupReps; i++ {
			got, _, ok := rc.Get(key)
			if !ok {
				return fmt.Errorf("cache replay: stored entry missing")
			}
			var res service.Result
			if err := json.Unmarshal(got, &res); err != nil {
				return fmt.Errorf("cache replay: %w", err)
			}
		}
		return nil
	})
}

func (r *replayRun) fsim(c *netlist.Circuit, faults []fault.Fault, seq sim.Seq) *fsim.Result {
	var res *fsim.Result
	r.step("fsim.run", func() (err error) {
		res, err = fsim.RunContext(r.rp.ctx, c, faults, seq)
		return err
	})
	if res != nil {
		r.rp.counts["fsim.evals"] += res.Stats.Evals
	}
	return res
}

func (r *replayRun) atpg(c *netlist.Circuit, faults []fault.Fault, opt atpg.Options) *atpg.Result {
	var res *atpg.Result
	r.step("atpg.run", func() (err error) {
		res, err = atpg.RunContext(r.rp.ctx, c, faults, opt)
		return err
	})
	if res != nil {
		r.rp.counts["atpg.evals"] += res.Effort.Evals
		r.rp.counts["atpg.backtracks"] += res.Effort.Backtracks
		r.rp.counts["atpg.fsim_evals"] += res.FsimStats.Evals
	}
	return res
}

// input replays one input under a root span named name.
func (rp *replayer) input(label, name string, f func(r *replayRun)) error {
	r := &replayRun{rp: rp, label: label}
	d := rp.tr.do(label, name, 0, func(id int) {
		r.root = id
		f(r)
	})
	rp.durs[name] = append(rp.durs[name], d)
	return r.err
}

// replay dispatches one record to its kind's replay.
func (rp *replayer) replay(rec *jobRecord) error {
	var want service.Result
	if err := json.Unmarshal(rec.result, &want); err != nil {
		return err
	}
	label := fmt.Sprintf("replay %s #%d", rec.job.circ.name, rec.job.n)
	switch rec.job.req.Kind {
	case service.KindDeriveTests:
		return rp.derive(label, rec, want.Derive)
	case service.KindFaultSim:
		return rp.faultSim(label, rec, want.FaultSim)
	default:
		return rp.sharded(label, rec, want.ATPG)
	}
}

// derive replays the Fig. 6 flow the way core.Fig6FlowContext runs it,
// call by call, and requires the service's derived vectors and
// implemented-circuit detections back.
func (rp *replayer) derive(label string, rec *jobRecord, want *service.DeriveResult) error {
	opt := rec.job.req.ATPG.Options()
	return rp.input(label, "replay.fig6", func(r *replayRun) {
		c := r.parse(rec.job.circ.bench)
		var g, easy *retime.Graph
		var rmin retime.Retiming
		r.step("retime.minreg", func() (err error) {
			g = retime.FromCircuit(c)
			if rmin, _, err = g.MinRegistersContext(rp.ctx); err != nil {
				if rp.ctx.Err() != nil {
					return err
				}
				rmin = g.ReduceRegisters(g.Zero(), math.MaxInt)
			}
			easy, err = g.Retime(rmin)
			return err
		})
		var pair *core.RetimedPair
		r.step("core.build_pair", func() (err error) {
			pair, err = core.BuildPair(easy, retime.Invert(rmin), c.Name+".min", c.Name)
			return err
		})
		easyFaults := r.collapse(func() *netlist.Circuit { return pair.Original })
		var res *atpg.Result
		if r.err == nil {
			res = r.atpg(pair.Original, easyFaults, opt)
		}
		var derived sim.Seq
		r.step("core.derive", func() error {
			derived = pair.DeriveTestSet(res.TestSet, core.FillZeros, 0)
			return nil
		})
		implFaults := r.collapse(func() *netlist.Circuit { return pair.Retimed })
		var impl *fsim.Result
		if r.err == nil {
			impl = r.fsim(pair.Retimed, implFaults, derived)
		}
		if r.err == nil {
			r.cache(c, opt, rec.result)
		}
		if r.err == nil && (!slices.Equal(vecStrings(derived), want.Derived) || impl.Detected() != want.ImplDetected) {
			r.err = fmt.Errorf("%s: replayed Fig. 6 flow does not reproduce the service's derived test set", label)
		}
	})
}

// faultSim replays a fault_sim job.
func (rp *replayer) faultSim(label string, rec *jobRecord, want *service.FaultSimResult) error {
	return rp.input(label, "replay.fault_sim", func(r *replayRun) {
		c := r.parse(rec.job.circ.bench)
		faults := r.collapse(func() *netlist.Circuit { return c })
		var res *fsim.Result
		if r.err == nil {
			res = r.fsim(c, faults, sim.ParseSeq(rec.job.req.Tests))
		}
		if r.err == nil {
			r.cache(c, atpg.DefaultOptions(), rec.result)
		}
		if r.err == nil && res.Detected() != want.Detected {
			r.err = fmt.Errorf("%s: replayed fault simulation detects %d, service reported %d", label, res.Detected(), want.Detected)
		}
	})
}

// sharded replays an atpg job twice: locally with atpg.RunContext and
// through a fresh dispatcher against the live workerds. Both must equal
// the service's result; their time difference is the dispatch overhead.
func (rp *replayer) sharded(label string, rec *jobRecord, want *service.ATPGResult) error {
	opt := rec.job.req.ATPG.Options()
	return rp.input(label, "replay.atpg", func(r *replayRun) {
		c := r.parse(rec.job.circ.bench)
		faults := r.collapse(func() *netlist.Circuit { return c })
		var local *atpg.Result
		if r.err == nil {
			local = r.atpg(c, faults, opt)
		}
		var remote *atpg.Result
		r.step("dispatch.run_shards", func() (err error) {
			bs := make([]dispatch.Backend, len(rp.backends))
			for i, u := range rp.backends {
				bs[i] = dispatch.NewHTTPBackend(u)
			}
			remote, err = dispatch.New(dispatch.Config{Backends: bs}).RunShards(rp.ctx, c, faults, opt, rec.job.req.ATPG.Backends)
			return err
		})
		if r.err == nil {
			r.fsim(c, faults, local.TestSet)
		}
		if r.err == nil {
			r.cache(c, opt, rec.result)
		}
		if r.err != nil {
			return
		}
		ld, lr, la := local.Counts()
		rd, rr, ra := remote.Counts()
		switch {
		case !slices.Equal(vecStrings(remote.TestSet), vecStrings(local.TestSet)) || ld != rd || lr != rr || la != ra:
			r.err = fmt.Errorf("%s: RunShards differs from local atpg.RunContext", label)
		case !slices.Equal(vecStrings(local.TestSet), want.Vectors) || ld != want.Detected:
			r.err = fmt.Errorf("%s: replayed ATPG does not reproduce the service's test set", label)
		}
	})
}

// stackOverhead is the per-request cost of httpmw.Stack as servd
// configures it, over the bare handler, from the median of five batches.
func stackOverhead() time.Duration {
	bare := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	stacked := httpmw.Stack(httpmw.Config{
		Log:      logger.New(logger.Info, 0),
		Registry: metrics.NewRegistry(),
		Route:    func(*http.Request) string { return "/v1/jobs/{id}" },
		MaxBody:  8 << 20,
	})(bare)
	const batch = 2000
	per := func(h http.Handler) time.Duration {
		var means []float64
		for b := 0; b < 5; b++ {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/jobs/job-000001", nil))
			}
			means = append(means, float64(time.Since(t0))/batch)
		}
		return time.Duration(quantile(means, 0.5))
	}
	return per(stacked) - per(bare)
}

// journalSubmitCost is the median extra time service.Submit spends with
// a journal (appending the submit entry, bench text included) over the
// same Submit without one. The request fails to parse on its first line
// so the background job does next to no work.
func journalSubmitCost(dir, bench string) (time.Duration, error) {
	const n = 50
	req := service.Request{Kind: service.KindFaultSim, Bench: "BAD\n" + bench, Tests: "0"}
	measure := func(journal string) (time.Duration, error) {
		svc, err := service.Open(service.Config{Workers: 1, QueueDepth: n + 1, JournalPath: journal, CacheBytes: -1})
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		ds := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := svc.Submit(req); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
		return time.Duration(quantile(ds, 0.5)), nil
	}
	with, err := measure(filepath.Join(dir, "replay.journal"))
	if err != nil {
		return 0, err
	}
	without, err := measure("")
	return with - without, err
}

func vecStrings(seq sim.Seq) []string {
	out := make([]string, len(seq))
	for i, v := range seq {
		out[i] = sim.VecString(v)
	}
	return out
}
