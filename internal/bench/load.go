package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/auth"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/sim"
	"rai/internal/telemetry"
	"rai/internal/workload"
)

// LoadConfig shapes the closed-loop load: M students, each cycling
// submit → wait-for-End → download-build → think until the duration
// elapses.
type LoadConfig struct {
	Students int
	Duration time.Duration
	Seed     uint64
	// ThinkMin/ThinkMax clamp the course model's inter-submission gaps
	// after compression to benchmark scale.
	ThinkMin time.Duration
	ThinkMax time.Duration
	// LogWait bounds one submission's wait for its End message.
	LogWait time.Duration
	// DownloadBuild fetches the /build artifact after a success, closing
	// the loop the way real students do.
	DownloadBuild bool
	// SampleRate is the head-sampling rate applied at each submission's
	// trace root (0 or >= 1 keeps every trace). All students share one
	// sampler so the kept fraction is measured across the whole run.
	SampleRate float64
}

// studentPlan is one student's scripted behaviour, derived from the
// workload course model: the project specs they would submit, in
// order, and the think time before each next submission.
type studentPlan struct {
	creds  auth.Credentials
	specs  []project.Spec
	thinks []time.Duration
}

// LoadResult is what the drive measured.
type LoadResult struct {
	// Latency is the merged client-observed submit-to-End distribution
	// (per-student histograms merged via HDR snapshots).
	Latency *telemetry.HDRSnapshot
	Counts  JobCounts
	JobIDs  []string
	// SampledJobIDs are the jobs whose traces survived head sampling —
	// the only ones phase attribution can hope to resolve.
	SampledJobIDs []string
	Elapsed       time.Duration
}

// BuildPlans derives one scripted behaviour per student from the
// course model: student i plays team (i mod teams) of a generated
// Fall-2016-shaped course, with that team's submission specs and its
// inter-submission gaps compressed so the median think lands mid-range
// between min and max.
func BuildPlans(cfg LoadConfig, creds []auth.Credentials) []studentPlan {
	course := workload.Generate(workload.Config{
		Seed:              cfg.Seed,
		Teams:             cfg.Students,
		Students:          cfg.Students,
		Start:             workload.Fall2016().Start,
		Deadline:          workload.Fall2016().Deadline,
		TargetSubmissions: cfg.Students * 400,
	})
	byTeam := map[string][]workload.Submission{}
	for _, s := range course.Submissions {
		byTeam[s.Team] = append(byTeam[s.Team], s)
	}
	// Compression factor: map the median course gap onto the middle of
	// the configured think range.
	var gaps []time.Duration
	for _, subs := range byTeam {
		for i := 1; i < len(subs); i++ {
			gaps = append(gaps, subs[i].Time.Sub(subs[i-1].Time))
		}
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	scale := 1.0
	if len(gaps) > 0 {
		median := gaps[len(gaps)/2]
		target := (cfg.ThinkMin + cfg.ThinkMax) / 2
		if median > 0 && target > 0 {
			scale = float64(target) / float64(median)
		}
	}
	clampThink := func(d time.Duration) time.Duration {
		scaled := time.Duration(float64(d) * scale)
		if scaled < cfg.ThinkMin {
			return cfg.ThinkMin
		}
		if scaled > cfg.ThinkMax {
			return cfg.ThinkMax
		}
		return scaled
	}
	plans := make([]studentPlan, cfg.Students)
	for i := range plans {
		plans[i].creds = creds[i]
		team := course.Teams[i%len(course.Teams)]
		subs := byTeam[team.Name]
		for j, s := range subs {
			spec := s.Spec
			// The load generator plays every student as themselves so the
			// workers' per-user rate limiter sees distinct users.
			spec.Team = creds[i].UserName
			plans[i].specs = append(plans[i].specs, spec)
			think := cfg.ThinkMin
			if j+1 < len(subs) {
				think = clampThink(subs[j+1].Time.Sub(subs[j].Time))
			}
			plans[i].thinks = append(plans[i].thinks, think)
		}
		if len(plans[i].specs) == 0 {
			// Degenerate course (tiny target): fall back to one default run.
			plans[i].specs = []project.Spec{{Team: creds[i].UserName}}
			plans[i].thinks = []time.Duration{cfg.ThinkMin}
		}
	}
	return plans
}

// RunLoad drives every student against the cluster until the duration
// elapses, recording client-observed latency per student and merging
// the distributions at the end. logTo receives progress lines.
func RunLoad(ctx context.Context, clk clock.Clock, c *Cluster, cfg LoadConfig, plans []studentPlan, logTo io.Writer) (*LoadResult, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.LogWait <= 0 {
		cfg.LogWait = 2 * time.Minute
	}
	loadCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		counts     JobCounts
		jobMu      sync.Mutex
		jobIDs     []string
		sampledIDs []string
		hists      = make([]*telemetry.HDRHistogram, len(plans))
		errMu      sync.Mutex
		loadErr    error
		wg         sync.WaitGroup
	)
	// One sampler across all students: each verdict is decided once at
	// the job's trace root and propagated, and the run-wide kept
	// fraction is what the honesty assertions check.
	var sampler *telemetry.Sampler
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		sampler = telemetry.NewSampler(cfg.SampleRate)
	}
	setErr := func(err error) {
		errMu.Lock()
		if loadErr == nil {
			loadErr = err
		}
		errMu.Unlock()
	}
	for i := range hists {
		hists[i] = telemetry.NewHDRHistogram()
	}
	started := clk.Now()
	deadline := started.Add(cfg.Duration)

	for i := range plans {
		wg.Add(1)
		go func(i int, plan studentPlan) {
			defer wg.Done()
			queue, err := core.NewRemoteQueue(loadCtx, c.BrokerAddr)
			if err != nil {
				setErr(fmt.Errorf("bench: student %d: %w", i, err))
				return
			}
			defer queue.Close()
			// Each student ships its client-side spans (job root, upload,
			// enqueue) to the collector over its own broker connection —
			// without them the phase decomposition has no trace total.
			exp := telemetry.NewExporter(loadCtx, "rai", core.ShipTelemetry(queue))
			defer exp.Close()
			client := &core.Client{
				Creds:   plan.creds,
				Queue:   queue,
				Objects: objstore.NewClient(c.FSURL),
				Stdout:  io.Discard,
				Clock:   clk,
				LogWait: cfg.LogWait,
				Sampler: sampler,
				Tracer: telemetry.NewTracer(4096,
					telemetry.WithSpanSink(sampler.SpanSink(exp.ExportSpan)),
					telemetry.WithTracerInstance(telemetry.NewInstanceID(plan.creds.UserName))),
			}
			defer exp.Flush()
			for turn := 0; clk.Now().Before(deadline) && loadCtx.Err() == nil; turn++ {
				spec := plan.specs[turn%len(plan.specs)]
				m, src, err := sim.ProjectManifest(spec)
				if err != nil {
					setErr(fmt.Errorf("bench: packing project: %w", err))
					return
				}
				t0 := clk.Now()
				atomic.AddUint64(&counts.Submitted, 1)
				res, err := client.SubmitContext(loadCtx, core.KindRun, nil, m, src)
				hists[i].ObserveDuration(clk.Now().Sub(t0))
				if res != nil && res.JobID != "" {
					jobMu.Lock()
					jobIDs = append(jobIDs, res.JobID)
					if res.Sampled {
						sampledIDs = append(sampledIDs, res.JobID)
						atomic.AddUint64(&counts.Sampled, 1)
					}
					jobMu.Unlock()
				}
				switch {
				case err != nil && loadCtx.Err() != nil:
					return // shutdown race, not a measurement
				case err != nil:
					atomic.AddUint64(&counts.Errors, 1)
				case res.Status == core.StatusSucceeded:
					atomic.AddUint64(&counts.Succeeded, 1)
					if cfg.DownloadBuild {
						if _, err := client.DownloadBuildContext(loadCtx, res); err == nil {
							atomic.AddUint64(&counts.Downloads, 1)
						}
					}
				default:
					atomic.AddUint64(&counts.Failed, 1)
				}
				think := plan.thinks[turn%len(plan.thinks)]
				select {
				case <-loadCtx.Done():
					return
				case <-clk.After(think):
				}
			}
		}(i, plans[i])
	}
	wg.Wait()
	elapsed := clk.Now().Sub(started)
	errMu.Lock()
	err := loadErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}

	merged := telemetry.NewHDRHistogram().Snapshot()
	for _, h := range hists {
		if err := merged.Merge(h.Snapshot()); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(logTo, "load done: %d submitted, %d succeeded, %d failed, %d errors in %s\n",
		counts.Submitted, counts.Succeeded, counts.Failed, counts.Errors, elapsed.Round(time.Millisecond))
	if sampler != nil {
		fmt.Fprintf(logTo, "sampling: %d of %d job traces kept (rate %.2f)\n",
			counts.Sampled, len(jobIDs), cfg.SampleRate)
	}
	return &LoadResult{Latency: merged, Counts: counts, JobIDs: jobIDs, SampledJobIDs: sampledIDs, Elapsed: elapsed}, nil
}
