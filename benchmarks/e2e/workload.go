package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/service"
)

// Workload names, in the order a full run executes them.
const (
	wlFig6Cold    = "fig6_cold"
	wlFig6Hot     = "fig6_hot"
	wlFsimSweep   = "fsim_sweep"
	wlATPGSharded = "atpg_sharded"
)

var workloadNames = []string{wlFig6Cold, wlFig6Hot, wlFsimSweep, wlATPGSharded}

// coldCircuits are the Table II variants fig6_cold derives tests for
// (speed-retimed) and atpg_sharded runs ATPG on (before retiming): the
// ones whose Fig. 6 flow takes one to three seconds on one core, so a
// round of all nine fits a ten-second run on two cores.
var coldCircuits = []string{
	"dk16.ji.sd", "pma.jo.sd",
	"s820.jc.sd", "s820.jc.sr", "s820.ji.sr", "s820.jo.sd", "s820.jo.sr",
	"s832.jc.sr", "s832.jo.sr",
}

// hotCircuits are fig6_hot's four repeated requests. scf.ji.sd carries
// 216 KB of bench text and 3584 derived vectors, so per-byte costs of
// the read path show.
var hotCircuits = []string{"dk16.ji.sd", "s820.jo.sd", "s510.jc.sd", "scf.ji.sd"}

// Memory reading points. fig6_hot reads after 200 hits, about three
// seconds on a two-core host; fsim_sweep after four rounds, so the peak
// includes its two scf circuits overlapping in some round whatever the
// seed's order. The other workloads read after their first round.
const (
	hotMemJobs    = 200
	fsimMemRounds = 4
)

// fsimVectors is the length of each fsim_sweep random sequence.
const fsimVectors = 512

// maxSeededJobs keeps fig6_cold and atpg_sharded ATPG seeds
// (seed*1000 + job number) inside the run seed's own block.
const maxSeededJobs = 999

// circuit is one generated input circuit in bench form.
type circuit struct {
	name   string
	bench  string
	inputs int
}

// job is one request of a workload's submission sequence.
type job struct {
	n    int // 1-based position in the sequence
	circ *circuit
	req  service.Request
	body []byte // the POST body, marshalled once
	key  string // hex SHA-256 of body; names the request in digests.json
}

// workload is a deterministic, seed-driven request generator. Requests
// come in rounds: each round submits every circuit once, in an order
// shuffled by the seed and the round number, and a timed phase always
// ends on a round boundary so every run does the same mix of work.
type workload struct {
	name     string
	seed     int64
	circuits []*circuit
	// warmup lists requests computed before timing starts (fig6_hot's
	// cache fill); the timed phase repeats exactly these.
	warmup []*job
	// backends is how many workerd processes servd is given.
	backends int
	maxJobs  int
	// memJobs is the completed-job count at which rss_peak_mb is read.
	// servd keeps every job it ran, so memory grows with the jobs done;
	// reading it after a fixed amount of work keeps a faster commit from
	// reading as a memory regression.
	memJobs int
}

// newWorkload synthesizes the workload's circuits and prepares its
// request generator. The daemons only ever see the requests it makes.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed, maxJobs: 1 << 30}
	var err error
	switch name {
	case wlFig6Cold:
		w.circuits, err = genCircuits(coldCircuits, true)
		w.maxJobs = maxSeededJobs
	case wlFig6Hot:
		w.circuits, err = genCircuits(hotCircuits, true)
		for i, c := range w.circuits {
			w.warmup = append(w.warmup, newJob(i+1, c, service.Request{Kind: service.KindDeriveTests, Bench: c.bench}))
		}
	case wlFsimSweep:
		names := make([]string, 0, 16)
		for _, v := range experiments.TableIIVariants() {
			names = append(names, v.Name())
		}
		w.circuits, err = genCircuits(names, true)
	case wlATPGSharded:
		w.circuits, err = genCircuits(coldCircuits, false)
		w.backends = 2
		w.maxJobs = maxSeededJobs
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	w.maxJobs -= w.maxJobs % w.roundLen()
	w.memJobs = w.roundLen()
	switch name {
	case wlFig6Hot:
		w.memJobs = hotMemJobs
	case wlFsimSweep:
		w.memJobs = fsimMemRounds * w.roundLen()
	}
	return w, nil
}

// roundLen is the number of jobs in one round.
func (w *workload) roundLen() int { return len(w.circuits) }

// job returns the n-th request (1-based) of the submission sequence.
func (w *workload) job(n int) *job {
	round, k := (n-1)/w.roundLen(), (n-1)%w.roundLen()
	order := rand.New(rand.NewSource(mix(w.seed, w.name, round))).Perm(w.roundLen())
	idx := order[k]
	c := w.circuits[idx]
	switch w.name {
	case wlFig6Cold:
		return newJob(n, c, service.Request{
			Kind: service.KindDeriveTests, Bench: c.bench,
			ATPG: &service.ATPGSpec{RandomSeed: w.seed*1000 + int64(n)},
		})
	case wlFig6Hot:
		wj := *w.warmup[idx]
		wj.n = n
		return &wj
	case wlFsimSweep:
		rng := rand.New(rand.NewSource(mix(w.seed, w.name, round, idx)))
		vecs := make([]string, fsimVectors)
		bits := make([]byte, c.inputs)
		for i := range vecs {
			for b := range bits {
				bits[b] = "01"[rng.Intn(2)]
			}
			vecs[i] = string(bits)
		}
		return newJob(n, c, service.Request{
			Kind: service.KindFaultSim, Bench: c.bench, Tests: strings.Join(vecs, ","),
		})
	default: // wlATPGSharded
		return newJob(n, c, service.Request{
			Kind: service.KindATPG, Bench: c.bench,
			ATPG: &service.ATPGSpec{RandomSeed: w.seed*1000 + int64(n), Backends: w.backends},
		})
	}
}

func newJob(n int, c *circuit, req service.Request) *job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // service.Request is plain data
	}
	sum := sha256.Sum256(body)
	return &job{n: n, circ: c, req: req, body: body, key: hex.EncodeToString(sum[:16])}
}

// genCircuits synthesizes the named Table II variants. With retimed set
// each is speed-retimed the way the experiment harness does it
// (experiments.SpeedRetime) and the retimed circuit is returned;
// otherwise the original side of the same retimed pair.
func genCircuits(names []string, retimed bool) ([]*circuit, error) {
	variants := make(map[string]experiments.Variant)
	for _, v := range experiments.TableIIVariants() {
		variants[v.Name()] = v
	}
	out := make([]*circuit, 0, len(names))
	for _, name := range names {
		v, ok := variants[name]
		if !ok {
			return nil, fmt.Errorf("no Table II variant %q", name)
		}
		c, err := v.Synthesize()
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", name, err)
		}
		pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(name))
		if err != nil {
			return nil, fmt.Errorf("retime %s: %w", name, err)
		}
		side := pair.Original
		if retimed {
			side = pair.Retimed
		}
		out = append(out, &circuit{name: name, bench: netlist.BenchString(side), inputs: len(side.Inputs)})
	}
	return out, nil
}

// mix folds the run seed and a few coordinates into one PRNG seed.
func mix(seed int64, name string, coords ...int) int64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(seed, 10) + "/" + name))
	for _, c := range coords {
		h.Write([]byte("/" + strconv.Itoa(c)))
	}
	return int64(h.Sum64() >> 1)
}
