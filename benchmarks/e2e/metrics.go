package main

import (
	"time"
)

// metric is one reported number. N is the sample count or, for a
// ratio or per-job figure, the base it was taken over.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// e2eInputs are the untraced measurements of one run.
type e2eInputs struct {
	latMS  []float64     // latencies of the verified jobs
	cpu    time.Duration // servd plus workerds, timed phase
	hwmKB  int64
	setups []float64 // seconds, one per set-up
}

// closedLoopRate is the verified jobs per second of the closed loop
// with every client busy: jobs divided by the client-busy time per
// client. It leaves out the end of the timed phase, where one client
// already stopped at the round boundary while the other finishes, a
// tail whose length depends on which circuit the seed put last.
func closedLoopRate(latMS []float64) float64 {
	var busy float64
	for _, l := range latMS {
		busy += l / 1000
	}
	if busy == 0 {
		return 0
	}
	return float64(len(latMS)) / (busy / clients)
}

func e2eMetrics(in e2eInputs) []metric {
	n := len(in.latMS)
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	pos := func(x float64) float64 { // no samples: report 0, the run failed
		if n == 0 {
			return 0
		}
		return x
	}
	return []metric{
		{"jobs_per_s", closedLoopRate(in.latMS), "jobs/s", n},
		{"latency_p50_ms", pos(quantile(in.latMS, 0.5)), "ms", n},
		{"latency_tail_ms", pos(quantile(in.latMS, tailQuantile(n))), "ms", n},
		{"cpu_s_per_job", per(in.cpu.Seconds()), "s", n},
		{"rss_peak_mb", float64(in.hwmKB) / 1024, "MiB", 1},
		{"setup_s", quantile(in.setups, 0.5), "s", len(in.setups)},
	}
}

// traceInputs are the traced run's extra measurements.
type traceInputs struct {
	recs          []*jobRecord // verified jobs of the timed phase
	kind          string       // service job kind
	diff, after   snapshot     // servd /metrics: timed-phase difference, final
	journalBytes  int64
	cacheDisk     int64
	rssGrowthKB   int64
	workerCPU     time.Duration
	warmup        time.Duration
	stackOverhead time.Duration
	journalCost   time.Duration
	rp            *replayer
}

// layerMetrics computes a traced run's per-layer metrics in
// BENCHMARK.json's order; README.md names each one's layer and the
// end-to-end metric it should move. A layer the workload does not
// exercise reports 0.
func layerMetrics(in traceInputs) []metric {
	n := len(in.recs)
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	pos := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x
	}
	var submit, queue, run, pickup, polls, bytes float64
	lat := make([]float64, 0, n)
	for _, r := range in.recs {
		submit += ms(r.created.Sub(r.postStart))
		queue += ms(r.started.Sub(r.created))
		run += ms(r.finished.Sub(r.started))
		pickup += ms(r.observed.Sub(r.finished))
		polls += float64(r.polls)
		bytes += float64(r.resultBytes)
		lat = append(lat, ms(r.latency()))
	}
	d := in.diff
	jobsLat := d.hists["jobs.latency."+in.kind]
	stageMS := func(s string) float64 {
		if jobsLat.Count == 0 {
			return 0
		}
		return float64(d.hists["stage."+s+".latency"].SumNS) / float64(jobsLat.Count) / 1e6
	}
	staged := 0.0
	for _, s := range []string{"parse", "collapse", "fig6", "atpg", "fsim"} {
		staged += stageMS(s)
	}
	unstaged := 0.0
	if jobsLat.Count > 0 {
		unstaged = ms(jobsLat.mean()) - staged
	}
	hits, misses, stores := d.nums["cache.hits"], d.nums["cache.misses"], d.nums["cache.stores"]
	rp := in.rp
	meanMS := func(name string) float64 { return ms(meanDur(rp.durs[name])) }
	rate := func(count, span string) float64 { // millions per second
		if t := sumDur(rp.durs[span]); t > 0 {
			return float64(rp.counts[count]) / 1e6 / t.Seconds()
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	fig6Inputs := len(rp.durs["replay.fig6"])
	var overhead float64
	if runs := rp.durs["dispatch.run_shards"]; len(runs) > 0 && len(runs) == len(rp.durs["atpg.run"]) {
		overhead = meanMS("dispatch.run_shards") - meanMS("atpg.run")
	}
	replayed := len(rp.durs["netlist.parse"])
	return []metric{
		{"http.submit_ms", per(submit), "ms", n},
		{"http.server_submit_us", us(d.hists["http.latency.POST /v1/jobs"].mean()), "us", int(d.hists["http.latency.POST /v1/jobs"].Count)},
		{"http.poll_us", us(d.hists["http.latency.GET /v1/jobs/{id}"].mean()), "us", int(d.hists["http.latency.GET /v1/jobs/{id}"].Count)},
		{"http.polls_per_job", per(polls), "count", n},
		{"http.result_bytes_per_job", per(bytes), "bytes", n},
		{"httpmw.stack_us", us(in.stackOverhead), "us", 5},
		{"service.queue_wait_ms", per(queue), "ms", n},
		{"service.run_ms", per(run), "ms", n},
		{"service.pickup_ms", per(pickup), "ms", n},
		{"service.unstaged_ms", unstaged, "ms", int(jobsLat.Count)},
		{"journal.bytes_per_job", per(float64(in.journalBytes)), "bytes", n},
		{"journal.append_us", us(in.journalCost), "us", 50},
		{"service.rss_growth_kb_per_job", per(float64(in.rssGrowthKB)), "kB", n},
		{"cache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits + misses)},
		{"cache.hits", hits, "count", int(hits + misses)},
		{"cache.misses", misses, "count", int(hits + misses)},
		{"cache.stores_per_job", per(stores), "count", n},
		{"cache.entry_bytes", ratio(in.after.nums["cache.bytes"], in.after.nums["cache.entries"]), "bytes", int(in.after.nums["cache.entries"])},
		{"cache.disk_bytes_per_store", ratio(float64(in.cacheDisk), stores), "bytes", int(stores)},
		{"cache.key_ms", meanMS("cache.key"), "ms", len(rp.durs["cache.key"])},
		{"cache.lookup_us", us(meanDur(rp.durs["cache.lookup"])) / lookupReps, "us", len(rp.durs["cache.lookup"]) * lookupReps},
		{"stage.parse_ms", stageMS("parse"), "ms", int(jobsLat.Count)},
		{"netlist.parse_mb_per_s", rate("netlist.parse_bytes", "netlist.parse"), "MB/s", replayed},
		{"stage.collapse_ms", stageMS("collapse"), "ms", int(jobsLat.Count)},
		{"fault.collapse_ms", meanMS("fault.collapse"), "ms", len(rp.durs["fault.collapse"])},
		{"stage.fig6_ms", stageMS("fig6"), "ms", int(jobsLat.Count)},
		{"retime.minreg_ms", meanMS("retime.minreg"), "ms", len(rp.durs["retime.minreg"])},
		{"core.derive_ms", ratio(ms(sumDur(rp.durs["core.build_pair"])+sumDur(rp.durs["core.derive"])), float64(fig6Inputs)), "ms", fig6Inputs},
		{"stage.atpg_ms", stageMS("atpg"), "ms", int(jobsLat.Count)},
		{"atpg.run_ms", meanMS("atpg.run"), "ms", len(rp.durs["atpg.run"])},
		{"atpg.evals", float64(rp.counts["atpg.evals"]), "count", len(rp.durs["atpg.run"])},
		{"atpg.backtracks", float64(rp.counts["atpg.backtracks"]), "count", len(rp.durs["atpg.run"])},
		{"atpg.fsim_evals", float64(rp.counts["atpg.fsim_evals"]), "count", len(rp.durs["atpg.run"])},
		{"atpg.mevals_per_s", rate("atpg.evals", "atpg.run"), "Mevals/s", len(rp.durs["atpg.run"])},
		{"atpg.share_of_fig6", ratio(float64(sumDur(rp.durs["atpg.run"])), float64(sumDur(rp.durs["replay.fig6"]))), "ratio", fig6Inputs},
		{"atpg.checkpoint_writes_per_job", per(d.nums["atpg.checkpoint.written"]), "count", n},
		{"stage.fsim_ms", stageMS("fsim"), "ms", int(jobsLat.Count)},
		{"fsim.evals_per_job", per(d.nums["fsim.evals"]), "count", n},
		{"fsim.drops_per_job", per(d.nums["fsim.drops"]), "count", n},
		{"fsim.mevals_per_s", rate("fsim.evals", "fsim.run"), "Mevals/s", len(rp.durs["fsim.run"])},
		{"fsim.run_ms", meanMS("fsim.run"), "ms", len(rp.durs["fsim.run"])},
		{"dispatch.shards_per_job", per(d.nums["dispatch.shards"]), "count", n},
		{"dispatch.retries", d.nums["dispatch.retries"], "count", n},
		{"dispatch.migrations", d.nums["dispatch.migrations"], "count", n},
		{"dispatch.degraded", d.nums["dispatch.degraded"], "count", n},
		{"dispatch.overhead_ms", overhead, "ms", len(rp.durs["dispatch.run_shards"])},
		{"workerd.cpu_s_per_job", per(in.workerCPU.Seconds()), "s", n},
		{"trace.jobs_per_s", closedLoopRate(lat), "jobs/s", n},
		{"trace.latency_p50_ms", pos(quantile(lat, 0.5)), "ms", n},
		{"setup.warmup_s", in.warmup.Seconds(), "s", 1},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}
