package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef is one line of the benchmark's contract. BENCHMARK.json
// repeats name, unit, better and bound; a self-test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening of the median, as a share
	// Moves says which end-to-end metric this layer metric should move,
	// and on which workload (README.md has the full map).
	Moves string `json:"moves,omitempty"`
}

// Every bound is the contract's cap. The issue asked for 10 %; ten-run
// interquartile spreads on the 2 shared vCPUs this was written on were
// 5-13 %, and the machine itself drifted by 20 % within an hour (README.md,
// "How steady it is"), so anything tighter would reject unchanged code.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// cpuLayers are the terms of cpu_ms_per_job.
var cpuLayers = append([]string{"rai"}, daemonLayers...)

var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: l + ".cpu_ms_per_job", Unit: "ms", Better: "lower",
			Moves: "a term of cpu_ms_per_job everywhere; jobs_per_s on the closed loops, job_latency_p50_ms on rush_open"})
	}
	for _, l := range daemonLayers {
		defs = append(defs, metricDef{Name: l + ".peak_rss_mib", Unit: "MiB", Better: "lower", Moves: "a term of peak_rss_mib"})
	}
	lower := func(name, unit, moves string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: "lower", Moves: moves})
	}
	const p50 = "job_latency_p50_ms"
	lower("rai.upload_phase_ms_p50", "ms", p50+" on fresh_large; 1/8 of that on edit_large")
	lower("brokerd.dispatch_gap_ms_p50", "ms", p50+" on rush_open only")
	lower("raiworker.service_ms_p50", "ms", p50+" everywhere")
	lower("rai.exit_tail_ms_p50", "ms", p50+" everywhere, small")
	lower("raiworker.raifs_busy_ms_per_job", "ms", p50+" on both *_large")
	lower("raiworker.raidb_busy_ms_per_job", "ms", p50+" and jobs_per_s on dev_small")
	lower("raiworker.self_ms_per_job", "ms", p50+" on dev_small (the CNN run)")
	lower("raifs.from_rai.requests_per_job", "count", p50+" on fresh_large")
	lower("raifs.from_rai.bytes_in_per_job", "B", p50+" on fresh_large; about 1/8 on edit_large")
	lower("raifs.from_rai.busy_ms_per_job", "ms", p50+" on fresh_large")
	lower("raifs.from_raiworker.requests_per_job", "count", p50+" and raifs.cpu_ms_per_job on both *_large")
	lower("raifs.from_raiworker.bytes_out_per_job", "B", "same on both *_large: the worker fetches the whole tree")
	lower("raifs.from_raiworker.busy_ms_per_job", "ms", p50+" on both *_large")
	lower("raifs.chunk_gets_per_job", "count", "raifs.from_raiworker.busy_ms_per_job on both *_large; about 0 on dev_small")
	lower("raifs.chunk_get_ms_p50", "ms", "raifs.from_raiworker.busy_ms_per_job on both *_large")
	lower("raifs.errors_per_job", "count", "status >= 400; today one build-cache miss per job")
	lower("raidb.from_raiworker.requests_per_job", "count", "raiworker.service_ms_p50 on dev_small")
	lower("raidb.from_raiworker.busy_ms_per_job", "ms", "raiworker.service_ms_p50 on dev_small")
	lower("raidb.find_ms_p50", "ms", "brokerd.dispatch_gap_ms_p50 (the rate-limit query) on dev_small")
	lower("raidb.upsert_ms_p50", "ms", "raiworker.service_ms_p50 on dev_small")
	lower("raidb.find_growth_ratio", "ratio", "above 1 means find slows as the jobs collection grows within a window")
	lower("raidb.from_collector.requests_per_job", "count", "raidb.cpu_ms_per_job everywhere, most on *_large (a span per chunk GET)")
	lower("raidb.from_collector.busy_ms_per_job", "ms", "raidb.cpu_ms_per_job everywhere; off the blocking path")
	lower("raidb.errors_per_job", "count", "status >= 400")
	lower("brokerd.bytes_per_job", "B", "brokerd.cpu_ms_per_job")
	lower("brokerd.conns_per_job", "count", "brokerd.cpu_ms_per_job")
	lower("brokerd.from_rai.bytes_per_job", "B", "brokerd.cpu_ms_per_job")
	lower("brokerd.telemetry_bytes_per_job", "B", "brokerd.cpu_ms_per_job; telemetry's share of broker traffic")
	lower("collector.drain_s", "s", "large means cpu_ms_per_job under saturation under-counts telemetry")
	defs = append(defs, metricDef{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher",
		Moves: "traced jobs_per_s over untraced; how far the traced numbers can be trusted"})
	lower("bench.traced_latency_p50_ms", "ms", "what the four blocking-path medians should sum to, within 5 %")
	lower("bench.gen_lateness_ms_p95", "ms", "rush_open: spawn minus due; large means the generator, not the system, was late")
	lower("bench.backlog_max", "count", "rush_open: above 4 at two bursts running means the rate is not sustainable")
	lower("bench.drain_capped_rounds", "count", "rounds whose drain hit its 5 s cap; their CPU books are short")
	lower("bench.failed_ratio", "ratio", "must be 0: non-zero exit, 30 s timeout or failed output check, over attempted")
	lower("bench.slo_miss_ratio", "ratio", "share of attempted jobs over the workload's latency limit; at most 0.02")
	return defs
}()

func okJobs(res *roundResult) []job {
	var out []job
	for _, j := range res.Jobs {
		if j.OK {
			out = append(out, j)
		}
	}
	return out
}

func latencies(jobs []job) []float64 {
	out := make([]float64, len(jobs))
	for i := range jobs {
		out[i] = jobs[i].latencyMS()
	}
	return out
}

// endToEnd computes one round's student-visible numbers.
func endToEnd(res *roundResult) map[string]float64 {
	ok := okJobs(res)
	// Throughput is jobs over the time they took, up to the last job's
	// return: counting only completions inside the window would round the
	// rate to whole jobs, a step of several percent on the large trees.
	lastExit := res.WindowStart
	for _, j := range ok {
		lastExit = math.Max(lastExit, j.Exit)
	}
	cpu, rss := 0.0, 0.0
	for _, v := range res.CPUms {
		cpu += v
	}
	for _, v := range res.PeakRSSMiB {
		rss += v
	}
	lat := latencies(ok)
	return map[string]float64{
		"setup_s":            res.SetupS,
		"jobs_per_s":         float64(len(ok)) / (lastExit - res.WindowStart),
		"job_latency_p50_ms": percentile(lat, 0.50),
		"job_latency_p95_ms": percentile(lat, 0.95),
		"cpu_ms_per_job":     cpu / float64(len(ok)),
		"peak_rss_mib":       rss,
	}
}

// procLayers computes the always-on per-layer numbers, which come from
// /proc and the rai children's rusage and so cost the system nothing.
func procLayers(res *roundResult, wl *workload) map[string]float64 {
	n := float64(len(okJobs(res)))
	m := map[string]float64{}
	for _, l := range cpuLayers {
		m[l+".cpu_ms_per_job"] = res.CPUms[l] / n
	}
	for _, l := range daemonLayers {
		m[l+".peak_rss_mib"] = res.PeakRSSMiB[l]
	}
	var late []float64
	failed, missed := 0, 0
	for _, j := range res.Jobs {
		late = append(late, (j.Spawn-j.Due)*1000)
		if !j.OK {
			failed++
		}
		if !j.OK || j.latencyMS() > wl.SLOms {
			missed++
		}
	}
	m["bench.gen_lateness_ms_p95"] = percentile(late, 0.95)
	m["bench.backlog_max"] = float64(res.BacklogMax)
	m["bench.drain_capped_rounds"] = 0
	if res.DrainCapped {
		m["bench.drain_capped_rounds"] = 1
	}
	m["bench.failed_ratio"] = float64(failed) / float64(len(res.Jobs))
	m["bench.slo_miss_ratio"] = float64(missed) / float64(len(res.Jobs))
	return m
}

// edgeTotal sums one edge's spans that began inside the books' period.
type edgeTotal struct {
	requests, errors  float64
	bytesIn, bytesOut float64
	busyMS            float64
	lastEnd           float64
}

// assignJobs gives every span the job it belongs to: by the id the
// caller sent, else by the trace id of a span that had both, else, on a
// student's own listener, by the job that student had running.
func assignJobs(spans []span, jobs []job) {
	byTrace := map[string]string{}
	for _, s := range spans {
		if s.Job != "" && s.trace != "" {
			byTrace[s.trace] = s.Job
		}
	}
	perStudent := map[int][]job{}
	rootOf := map[string]int64{}
	for _, j := range jobs {
		perStudent[j.Student] = append(perStudent[j.Student], j)
		rootOf[j.ID] = j.Span
	}
	for i := range spans {
		s := &spans[i]
		if s.Job == "" {
			s.Job = byTrace[s.trace]
		}
		if s.Job == "" && s.student >= 0 {
			for _, j := range perStudent[s.student] {
				if j.Spawn <= s.Start && s.Start <= j.Exit {
					s.Job = j.ID
				}
			}
		}
		s.Parent = rootOf[s.Job]
	}
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(x, hi)) }

func orZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// traceLayers computes one traced round's per-layer numbers from its
// spans, already joined to jobs by assignJobs.
func traceLayers(res *roundResult) map[string]float64 {
	ok := okJobs(res)
	n := float64(len(ok))
	windowEnd := res.WindowStart + res.WindowS

	edges := map[string]*edgeTotal{}
	fromRai := map[string][]span{}    // job id -> its rai->raifs calls
	fromWorker := map[string][]span{} // job id -> the worker's tagged calls
	var chunkGets, finds, upserts []span
	for _, s := range res.Spans {
		if s.Start < res.WindowStart {
			continue
		}
		e := edges[s.Edge]
		if e == nil {
			e = &edgeTotal{}
			edges[s.Edge] = e
		}
		e.requests++
		e.bytesIn += float64(s.BytesIn)
		e.bytesOut += float64(s.BytesOut)
		e.busyMS += (s.End - s.Start) * 1000
		e.lastEnd = math.Max(e.lastEnd, s.End)
		if s.Status >= 400 || s.Status < 0 {
			e.errors++
		}
		switch s.Edge {
		case "raifs.from_rai":
			fromRai[s.Job] = append(fromRai[s.Job], s)
		case "raifs.from_raiworker":
			fromWorker[s.Job] = append(fromWorker[s.Job], s)
			if s.Op == "GET /o/rai-cas" {
				chunkGets = append(chunkGets, s)
			}
		case "raidb.from_raiworker":
			fromWorker[s.Job] = append(fromWorker[s.Job], s)
			if strings.HasSuffix(s.Op, "/find") {
				finds = append(finds, s)
			} else if strings.HasSuffix(s.Op, "/upsert") {
				upserts = append(upserts, s)
			}
		}
	}
	edge := func(name string) *edgeTotal {
		if e := edges[name]; e != nil {
			return e
		}
		return &edgeTotal{}
	}

	// The blocking path of each job, cut at three moments seen from
	// outside: the last answer raifs gave rai, and the worker's first and
	// last call that carried the job's id. Consecutive, so a job's four
	// intervals sum to its latency.
	type path struct{ latency, upload, gap, service, tail float64 }
	var paths []path
	var fsBusy, dbBusy, self float64
	for _, j := range ok {
		mine, theirs := fromRai[j.ID], fromWorker[j.ID]
		if len(mine) == 0 || len(theirs) == 0 {
			continue
		}
		upEnd, first, last := 0.0, math.Inf(1), 0.0
		for _, s := range mine {
			upEnd = math.Max(upEnd, s.End)
		}
		for _, s := range theirs {
			first, last = math.Min(first, s.Start), math.Max(last, s.End)
		}
		upEnd = clamp(upEnd, j.Due, j.Exit)
		first = clamp(first, upEnd, j.Exit)
		last = clamp(last, first, j.Exit)
		paths = append(paths, path{j.latencyMS(),
			(upEnd - j.Due) * 1000, (first - upEnd) * 1000, (last - first) * 1000, (j.Exit - last) * 1000})

		var fs, db, all []interval
		for _, s := range theirs {
			iv := interval{clamp(s.Start, first, last), clamp(s.End, first, last)}
			all = append(all, iv)
			if s.Edge == "raifs.from_raiworker" {
				fs = append(fs, iv)
			} else {
				db = append(db, iv)
			}
		}
		fsBusy += unionLength(fs) * 1000
		dbBusy += unionLength(db) * 1000
		self += (last - first - unionLength(all)) * 1000
	}
	split := float64(len(paths))
	// Medians of the four intervals taken one by one do not sum to the
	// median latency (on rush_open half the jobs wait for a slot and half
	// do not). So the split reported is that of the median job: each
	// interval's mean over the jobs between the 40th and 60th percentile
	// of latency.
	sort.Slice(paths, func(a, b int) bool { return paths[a].latency < paths[b].latency })
	var mid path
	if len(paths) > 0 {
		band := paths[len(paths)*2/5 : len(paths)*3/5+1]
		for _, p := range band {
			mid.upload += p.upload / float64(len(band))
			mid.gap += p.gap / float64(len(band))
			mid.service += p.service / float64(len(band))
			mid.tail += p.tail / float64(len(band))
		}
	}

	durMS := func(spans []span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = (s.End - s.Start) * 1000
		}
		return out
	}
	// Growth of the rate-limit query over the window: the median find in
	// the last fifth of the window over that in the first fifth.
	sort.Slice(finds, func(a, b int) bool { return finds[a].Start < finds[b].Start })
	var early, late []span
	for _, s := range finds {
		switch {
		case s.Start < res.WindowStart+res.WindowS/5:
			early = append(early, s)
		case s.Start >= windowEnd-res.WindowS/5 && s.Start < windowEnd:
			late = append(late, s)
		}
	}

	var brokerBytes, brokerConns float64
	for e, b := range res.EdgeBytes {
		if strings.HasPrefix(e, "brokerd.") {
			brokerBytes += float64(b)
			brokerConns += float64(res.EdgeConns[e])
		}
	}
	telemetry := res.EdgeBytes["brokerd.from_raifs"] + res.EdgeBytes["brokerd.from_raidb"] + res.EdgeBytes["brokerd.from_collector"]

	rai, wfs, wdb, cdb := edge("raifs.from_rai"), edge("raifs.from_raiworker"), edge("raidb.from_raiworker"), edge("raidb.from_collector")
	m := map[string]float64{
		"rai.upload_phase_ms_p50":     mid.upload,
		"brokerd.dispatch_gap_ms_p50": mid.gap,
		"raiworker.service_ms_p50":    mid.service,
		"rai.exit_tail_ms_p50":        mid.tail,

		"raiworker.raifs_busy_ms_per_job": fsBusy / split,
		"raiworker.raidb_busy_ms_per_job": dbBusy / split,
		"raiworker.self_ms_per_job":       self / split,

		"raifs.from_rai.requests_per_job":        rai.requests / n,
		"raifs.from_rai.bytes_in_per_job":        rai.bytesIn / n,
		"raifs.from_rai.busy_ms_per_job":         rai.busyMS / n,
		"raifs.from_raiworker.requests_per_job":  wfs.requests / n,
		"raifs.from_raiworker.bytes_out_per_job": wfs.bytesOut / n,
		"raifs.from_raiworker.busy_ms_per_job":   wfs.busyMS / n,
		"raifs.chunk_gets_per_job":               float64(len(chunkGets)) / n,
		"raifs.chunk_get_ms_p50":                 percentile(durMS(chunkGets), 0.5),
		"raifs.errors_per_job":                   (rai.errors + wfs.errors) / n,

		"raidb.from_raiworker.requests_per_job": wdb.requests / n,
		"raidb.from_raiworker.busy_ms_per_job":  wdb.busyMS / n,
		"raidb.find_ms_p50":                     percentile(durMS(finds), 0.5),
		"raidb.upsert_ms_p50":                   percentile(durMS(upserts), 0.5),
		"raidb.find_growth_ratio":               percentile(durMS(late), 0.5) / percentile(durMS(early), 0.5),
		"raidb.from_collector.requests_per_job": cdb.requests / n,
		"raidb.from_collector.busy_ms_per_job":  cdb.busyMS / n,
		"raidb.errors_per_job":                  (wdb.errors + cdb.errors) / n,

		"brokerd.bytes_per_job":           brokerBytes / n,
		"brokerd.conns_per_job":           brokerConns / n,
		"brokerd.from_rai.bytes_per_job":  float64(res.EdgeBytes["brokerd.from_rai"]) / n,
		"brokerd.telemetry_bytes_per_job": float64(telemetry) / n,

		"collector.drain_s": math.Max(0, cdb.lastEnd-windowEnd),

		"bench.traced_latency_p50_ms": percentile(latencies(ok), 0.5),
	}
	for k, v := range m {
		m[k] = orZero(v)
	}
	return m
}

// measured is one metric of one workload, over the rounds of one run.
type measured struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"` // (max-min)/median over Rounds
	Rounds []float64 `json:"rounds"`
	Bound  float64   `json:"bound,omitempty"`
	// Status is "unresolved" when the rounds of this one commit lie
	// further apart than the bound a change would be judged by.
	Status string `json:"status,omitempty"`
}

type workloadReport struct {
	Workload  workload            `json:"workload"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	OKJobs    int                 `json:"ok_jobs"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer"`
	Rounds    []*roundResult      `json:"rounds"`
}

// report folds a workload's rounds into its metrics. End-to-end and
// /proc numbers come from the untraced rounds only; span numbers from
// the traced ones. Each value is the median round, except the latency
// percentiles, which pool every job of the untraced rounds.
func report(wl *workload, rounds []*roundResult) *workloadReport {
	rep := &workloadReport{Workload: *wl, Rounds: rounds,
		EndToEnd: map[string]measured{}, PerLayer: map[string]measured{}}
	var plain, traced []*roundResult
	for _, r := range rounds {
		if r.Traced {
			traced = append(traced, r)
			continue
		}
		plain = append(plain, r)
		rep.Attempted += len(r.Jobs)
		rep.OKJobs += len(okJobs(r))
	}
	rep.Failed = rep.Attempted - rep.OKJobs

	collect := func(rs []*roundResult, f func(*roundResult) map[string]float64) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range rs {
			for k, v := range f(r) {
				out[k] = append(out[k], v)
			}
		}
		return out
	}
	fold := func(def metricDef, vals []float64) measured {
		m := measured{Value: median(vals), Unit: def.Unit, Spread: spread(vals), Rounds: vals, Bound: def.Bound}
		if def.Bound > 0 && m.Spread > def.Bound {
			m.Status = "unresolved"
		}
		return m
	}

	e2e := collect(plain, endToEnd)
	var pooled []float64
	for _, r := range plain {
		pooled = append(pooled, latencies(okJobs(r))...)
	}
	for _, def := range endToEndDefs {
		m := fold(def, e2e[def.Name])
		switch def.Name {
		case "job_latency_p50_ms":
			m.Value = percentile(pooled, 0.50)
		case "job_latency_p95_ms":
			m.Value = percentile(pooled, 0.95)
		}
		rep.EndToEnd[def.Name] = m
	}

	layers := collect(plain, func(r *roundResult) map[string]float64 { return procLayers(r, wl) })
	for k, v := range collect(traced, traceLayers) {
		layers[k] = v
	}
	if len(traced) > 0 && len(plain) > 0 {
		layers["bench.trace_overhead_ratio"] = []float64{
			median(collect(traced, endToEnd)["jobs_per_s"]) / rep.EndToEnd["jobs_per_s"].Value}
	}
	for _, def := range perLayerDefs {
		vals, ok := layers[def.Name]
		if !ok {
			continue
		}
		m := fold(def, vals)
		switch def.Name {
		case "bench.backlog_max":
			m.Value = percentile(vals, 1) // the worst round
		case "bench.drain_capped_rounds":
			m.Value = sum(vals)
		}
		rep.PerLayer[def.Name] = m
	}
	return rep
}
