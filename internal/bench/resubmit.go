package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/auth"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// Resubmit mode (DESIGN.md §16): instead of cycling the course model's
// project specs, every student keeps ONE project and iterates on it the
// way real students do — submit, get feedback, edit a few lines, submit
// again. Turn 0 is the cold upload, turn 1 resubmits the identical tree
// (the "oops, forgot to save" case the warm build cache answers), and
// every later turn edits a small fraction of one file. The interesting
// numbers are bytes-on-the-wire per submission class and the cache hit
// rate, which is what ResubmitStats records.

// ResubmitStats aggregates the delta-transfer measurements of one run.
type ResubmitStats struct {
	mu sync.Mutex
	// Per-class wire bytes (manifest + uploaded chunks) and counts.
	ColdBytes, UnchangedBytes, EditedBytes int64
	ColdCount, UnchangedCount, EditedCount int
	TreeBytes                              int64 // sum of full tree sizes across submissions
	CacheHits, CacheableMisses             int   // over unchanged resubmissions only
}

func (s *ResubmitStats) record(turnKind string, t *core.TransferStats, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.TreeBytes += t.TotalBytes
	switch turnKind {
	case "cold":
		s.ColdBytes += t.SentBytes
		s.ColdCount++
	case "unchanged":
		s.UnchangedBytes += t.SentBytes
		s.UnchangedCount++
		if cached {
			s.CacheHits++
		} else {
			s.CacheableMisses++
		}
	default:
		s.EditedBytes += t.SentBytes
		s.EditedCount++
	}
}

// ResubmitReport is the JSON section a resubmit run adds to the bench
// report.
type ResubmitReport struct {
	Submissions        int     `json:"submissions"`
	ColdBytesMean      float64 `json:"cold_bytes_mean"`
	UnchangedBytesMean float64 `json:"unchanged_bytes_mean"`
	EditedBytesMean    float64 `json:"edited_bytes_mean"`
	TreeBytesMean      float64 `json:"tree_bytes_mean"`
	// UnchangedReduction is 1 − unchanged/cold mean wire bytes: the
	// fraction of the upload the delta protocol removed for an identical
	// tree. The acceptance bar is ≥ 0.9.
	UnchangedReduction float64 `json:"unchanged_reduction"`
	// EditedReduction is the same ratio for small-edit resubmissions.
	EditedReduction float64 `json:"edited_reduction"`
	CacheHits       int     `json:"cache_hits"`
	// CacheHitRate is hits over unchanged resubmissions (the only class
	// eligible to hit).
	CacheHitRate   float64 `json:"cache_hit_rate"`
	WireBytesTotal int64   `json:"wire_bytes_total"`
}

// Report renders the aggregate into its JSON form.
func (s *ResubmitStats) Report() *ResubmitReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	mean := func(sum int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	r := &ResubmitReport{
		Submissions:        s.ColdCount + s.UnchangedCount + s.EditedCount,
		ColdBytesMean:      mean(s.ColdBytes, s.ColdCount),
		UnchangedBytesMean: mean(s.UnchangedBytes, s.UnchangedCount),
		EditedBytesMean:    mean(s.EditedBytes, s.EditedCount),
		TreeBytesMean:      mean(s.TreeBytes, s.ColdCount+s.UnchangedCount+s.EditedCount),
		CacheHits:          s.CacheHits,
		WireBytesTotal:     s.ColdBytes + s.UnchangedBytes + s.EditedBytes,
	}
	if r.ColdBytesMean > 0 {
		r.UnchangedReduction = 1 - r.UnchangedBytesMean/r.ColdBytesMean
		r.EditedReduction = 1 - r.EditedBytesMean/r.ColdBytesMean
	}
	if s.UnchangedCount > 0 {
		r.CacheHitRate = float64(s.CacheHits) / float64(s.UnchangedCount)
	}
	return r
}

// Check asserts the run's acceptance bars: an unchanged tree must
// transfer ≥ 90% fewer bytes than the cold upload, and its resubmission
// must hit the warm build cache.
func (r *ResubmitReport) Check() error {
	if r.ColdBytesMean == 0 || r.UnchangedBytesMean == 0 {
		return fmt.Errorf("resubmit: run too short — no unchanged resubmission completed (cold %d, unchanged mean %.0f)",
			int(r.ColdBytesMean), r.UnchangedBytesMean)
	}
	if r.UnchangedReduction < 0.9 {
		return fmt.Errorf("resubmit: unchanged-tree transfer reduction %.1f%% < 90%%", 100*r.UnchangedReduction)
	}
	if r.CacheHits == 0 {
		return fmt.Errorf("resubmit: no build cache hits across %d unchanged resubmissions", r.Submissions)
	}
	return nil
}

// resubmitProject renders one student's working tree: the project spec
// plus a multi-chunk weights header, so the delta ratios measure chunk
// reuse rather than manifest overhead.
func resubmitProject(creds auth.Credentials) (*vfs.FS, error) {
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", project.Spec{Team: creds.UserName}); err != nil {
		return nil, err
	}
	var w bytes.Buffer
	for i := 0; w.Len() < 8*cas.AvgChunk; i++ {
		fmt.Fprintf(&w, "static const float w%06d = %d.%06de-3f; // %s\n", i, i%97, i*i%999983, creds.UserName)
	}
	if err := fs.WriteFile("/p/src/weights.h", w.Bytes()); err != nil {
		return nil, err
	}
	return fs, nil
}

// editOneLine rewrites a single line of the weights header in place —
// the "small fraction of one file" edit between iterations.
func editOneLine(fs *vfs.FS, turn int) error {
	data, err := fs.ReadFile("/p/src/weights.h")
	if err != nil {
		return err
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) > 1 {
		i := (turn * 37) % (len(lines) - 1)
		lines[i] = []byte(fmt.Sprintf("static const float tuned_%d = %d.0f; // edited turn %d", i, turn, turn))
	}
	return fs.WriteFile("/p/src/weights.h", bytes.Join(lines, []byte("\n")))
}

// RunResubmitLoad drives every student through the iterate-on-one-
// project loop until the duration elapses. Students use the delta
// protocol exclusively; a fallback to full upload is an error, since
// the cluster under test is supposed to support it.
func RunResubmitLoad(ctx context.Context, clk clock.Clock, c *Cluster, cfg LoadConfig, creds []auth.Credentials, logTo io.Writer) (*LoadResult, *ResubmitStats, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.LogWait <= 0 {
		cfg.LogWait = 2 * time.Minute
	}
	loadCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		counts  JobCounts
		jobMu   sync.Mutex
		jobIDs  []string
		stats   ResubmitStats
		hists   = make([]*telemetry.HDRHistogram, len(creds))
		errMu   sync.Mutex
		loadErr error
		wg      sync.WaitGroup
	)
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

	for i := range creds {
		wg.Add(1)
		go func(i int, cred auth.Credentials) {
			defer wg.Done()
			queue, err := core.NewRemoteQueue(loadCtx, c.BrokerAddr)
			if err != nil {
				setErr(fmt.Errorf("bench: student %d: %w", i, err))
				return
			}
			defer queue.Close()
			exp := telemetry.NewExporter(loadCtx, "rai", core.ShipTelemetry(queue))
			defer exp.Close()
			client := &core.Client{
				Creds:   cred,
				Queue:   queue,
				Objects: objstore.NewClient(c.FSURL),
				Stdout:  io.Discard,
				Clock:   clk,
				LogWait: cfg.LogWait,
				Tracer: telemetry.NewTracer(4096,
					telemetry.WithSpanSink(exp.ExportSpan),
					telemetry.WithTracerInstance(telemetry.NewInstanceID(cred.UserName))),
			}
			defer exp.Flush()
			fs, err := resubmitProject(cred)
			if err != nil {
				setErr(fmt.Errorf("bench: rendering project: %w", err))
				return
			}
			for turn := 0; clk.Now().Before(deadline) && loadCtx.Err() == nil; turn++ {
				turnKind := "cold"
				switch {
				case turn == 1:
					turnKind = "unchanged"
				case turn >= 2:
					turnKind = "edited"
					if err := editOneLine(fs, turn); err != nil {
						setErr(fmt.Errorf("bench: editing tree: %w", err))
						return
					}
				}
				m, src, err := cas.BuildVFS(fs, "/p")
				if err != nil {
					setErr(fmt.Errorf("bench: hashing tree: %w", err))
					return
				}
				t0 := clk.Now()
				atomic.AddUint64(&counts.Submitted, 1)
				res, err := client.SubmitContext(loadCtx, core.KindRun, nil, m, src)
				hists[i].ObserveDuration(clk.Now().Sub(t0))
				if res != nil && res.JobID != "" {
					jobMu.Lock()
					jobIDs = append(jobIDs, res.JobID)
					jobMu.Unlock()
				}
				switch {
				case err != nil && loadCtx.Err() != nil:
					return // shutdown race, not a measurement
				case err != nil:
					atomic.AddUint64(&counts.Errors, 1)
				case res.Status == core.StatusSucceeded:
					atomic.AddUint64(&counts.Succeeded, 1)
					if res.Transfer != nil {
						stats.record(turnKind, res.Transfer, res.CachedBuild)
					}
					if cfg.DownloadBuild {
						if _, err := client.DownloadBuildContext(loadCtx, res); err == nil {
							atomic.AddUint64(&counts.Downloads, 1)
						}
					}
				default:
					atomic.AddUint64(&counts.Failed, 1)
				}
				select {
				case <-loadCtx.Done():
					return
				case <-clk.After(cfg.ThinkMin):
				}
			}
		}(i, creds[i])
	}
	wg.Wait()
	elapsed := clk.Now().Sub(started)
	errMu.Lock()
	err := loadErr
	errMu.Unlock()
	if err != nil {
		return nil, nil, err
	}

	merged := telemetry.NewHDRHistogram().Snapshot()
	for _, h := range hists {
		if err := merged.Merge(h.Snapshot()); err != nil {
			return nil, nil, err
		}
	}
	r := stats.Report()
	fmt.Fprintf(logTo, "resubmit load done: %d submitted, %d succeeded in %s\n",
		counts.Submitted, counts.Succeeded, elapsed.Round(time.Millisecond))
	fmt.Fprintf(logTo, "resubmit wire bytes: cold %.0f, unchanged %.0f (%.1f%% reduction), edited %.0f (%.1f%%); cache hits %d (rate %.2f)\n",
		r.ColdBytesMean, r.UnchangedBytesMean, 100*r.UnchangedReduction,
		r.EditedBytesMean, 100*r.EditedReduction, r.CacheHits, r.CacheHitRate)
	return &LoadResult{Latency: merged, Counts: counts, JobIDs: jobIDs, SampledJobIDs: jobIDs, Elapsed: elapsed}, &stats, nil
}
