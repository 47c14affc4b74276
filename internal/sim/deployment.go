// Package sim wires every subsystem into a running RAI deployment and
// regenerates the paper's tables and figures. It offers two layers:
//
//   - Deployment: a full in-process stack (broker, object store,
//     database, auth, image registry, workers) that executes real
//     submissions end to end — archives really travel, containers really
//     run, the CNN really infers. Used by the examples, the integration
//     tests, and small-scale cross-validation of the fast path.
//
//   - QueueSim: an event-level replay of a whole course (tens of
//     thousands of submissions) against a provisioned fleet, using the
//     same cost model the containers use. Used to regenerate Figure 4,
//     the §VII aggregate statistics, and the provisioning comparisons.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"sync"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/telemetry"
	"rai/internal/vfs"
	"rai/internal/workload"
)

// Deployment is a complete in-process RAI installation (Figure 1).
type Deployment struct {
	Clock   *clock.Virtual
	Broker  *broker.Broker
	Store   *objstore.Store
	DB      *docstore.DB
	Auth    *auth.Registry
	Images  *registry.Registry
	DataFS  *vfs.FS
	Queue   broker.Queue
	Objects core.Objects
	// Telemetry aggregates metrics from every component on the
	// deployment's virtual clock, so simulated queue delays land in the
	// histograms exactly as the paper's Figure 4 measured them. Nothing
	// traces by default; a test that reads spans gives the client and
	// workers a tracer with a sink.
	Telemetry *telemetry.Registry

	workers []*core.Worker
	ids     io.Reader // job IDs and keys, drawn from the seed
}

// DeployConfig shapes a deployment.
type DeployConfig struct {
	Start time.Time
	// Workers is the initial worker count; SlotsPerWorker their
	// concurrency (multi-job vs single-job mode).
	Workers        int
	SlotsPerWorker int
	// FullImages is the image count in testfull.hdf5 (kept small; the
	// enforced spec's count argument drives modeled time).
	FullImages int
	// RateLimit overrides the 30 s default (0 keeps it).
	RateLimit time.Duration
	// Seed derives the model weights and datasets, and the job IDs and
	// keys the deployment issues, so a run prints the same every time.
	Seed uint64
}

// NewDeployment builds and starts a deployment at cfg.Start.
func NewDeployment(cfg DeployConfig) (*Deployment, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.SlotsPerWorker <= 0 {
		cfg.SlotsPerWorker = 1
	}
	if cfg.FullImages <= 0 {
		cfg.FullImages = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 408
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2016, 11, 11, 0, 0, 0, 0, time.UTC)
	}
	vc := clock.NewVirtual(cfg.Start)
	reg := telemetry.NewRegistry()
	d := &Deployment{
		Clock:     vc,
		Broker:    broker.New(broker.WithClock(vc), broker.WithTelemetry(reg)),
		Store:     objstore.New(objstore.WithClock(vc), objstore.WithDefaultTTL(core.UploadTTL)),
		DB:        docstore.New(),
		Auth:      auth.NewRegistry(),
		Images:    registry.NewCourseRegistry(),
		Telemetry: reg,
		ids:       &seededReader{r: rand.New(rand.NewSource(int64(cfg.Seed)))},
	}
	d.Broker.ExportQueueDepth(core.TasksTopic, core.TasksChannel)
	d.Auth.SetClock(vc.Now)
	d.Auth.SetRand(d.ids)
	d.Queue = d.Broker
	d.Objects = d.Store

	dataFS, err := cnn.DataVolume(cfg.Seed, cfg.FullImages)
	if err != nil {
		return nil, err
	}
	d.DataFS = dataFS

	for i := 0; i < cfg.Workers; i++ {
		w := &core.Worker{
			Cfg: core.WorkerConfig{
				ID:            fmt.Sprintf("worker-%d", i),
				MaxConcurrent: cfg.SlotsPerWorker,
				RateLimit:     cfg.RateLimit,
			},
			Queue:     d.Queue,
			Objects:   d.Objects,
			DB:        d.DB,
			Auth:      d.Auth,
			Images:    d.Images,
			DataFS:    d.DataFS,
			DataPath:  "/data",
			Clock:     vc,
			Telemetry: reg,
		}
		d.workers = append(d.workers, w)
	}
	return d, nil
}

// Workers exposes the worker pool.
func (d *Deployment) Workers() []*core.Worker { return d.workers }

// Close shuts the deployment down.
func (d *Deployment) Close() {
	for _, w := range d.workers {
		w.Stop()
	}
	d.Broker.Close()
}

// NewClient issues credentials (if needed) and returns a client for the
// team. Output is discarded unless out is non-nil.
func (d *Deployment) NewClient(team string, out io.Writer) (*core.Client, error) {
	creds, ok := d.Auth.LookupUser(team)
	if !ok {
		var err error
		creds, err = d.Auth.Issue(team)
		if err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = io.Discard
	}
	return &core.Client{
		Creds: creds, Queue: d.Queue, Objects: d.Objects,
		Clock: d.Clock, Stdout: out,
		Telemetry: d.Telemetry,
		IDs:       d.ids,
	}, nil
}

// seededReader is a seeded byte stream that concurrent clients share.
type seededReader struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (s *seededReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Read(p)
}

// projectTree renders a project spec as the tree a student submits.
func projectTree(spec project.Spec) (fs.FS, error) {
	mem := vfs.New()
	if err := project.WriteTo(mem, "/p", spec); err != nil {
		return nil, err
	}
	return mem.IOFS("/p"), nil
}

// ProjectManifest renders a project spec and hashes it into the
// manifest and chunk source a client hands to Submit.
func ProjectManifest(spec project.Spec) (*cas.Manifest, cas.Source, error) {
	tree, err := projectTree(spec)
	if err != nil {
		return nil, nil, err
	}
	return cas.Build(tree, nil)
}

// RunSubmission executes one workload submission end to end: pack the
// project, submit through the client, let one worker handle it.
func (d *Deployment) RunSubmission(ctx context.Context, c *core.Client, sub workload.Submission) (*core.JobResult, error) {
	d.Clock.AdvanceTo(sub.Time)
	tree, err := projectTree(sub.Spec)
	if err != nil {
		return nil, err
	}
	m, src, err := cas.Build(tree, nil)
	if err != nil {
		return nil, err
	}
	spec, _, err := core.PrepareProject(tree)
	if err != nil {
		return nil, err
	}
	type out struct {
		res *core.JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Submit(ctx, sub.Kind, spec, m, src)
		done <- out{res, err}
	}()
	// The submission is already on the queue when HandleOne subscribes
	// (the in-process broker publishes synchronously), so the wait never
	// has to fire — it only bounds a broken run on the virtual clock.
	if _, err := d.workers[0].HandleOne(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	o := <-done
	return o.res, o.err
}

// RunCourse executes an entire generated course through the full stack
// (intended for scaled-down configs; the 41k-submission term uses
// QueueSim). It returns per-submission results keyed by order.
func (d *Deployment) RunCourse(ctx context.Context, course *workload.Course) ([]CourseResult, error) {
	clients := map[string]*core.Client{}
	var results []CourseResult
	var buf bytes.Buffer
	for _, sub := range course.Submissions {
		c, ok := clients[sub.Team]
		if !ok {
			var err error
			c, err = d.NewClient(sub.Team, &buf)
			if err != nil {
				return results, err
			}
			clients[sub.Team] = c
		}
		res, err := d.RunSubmission(ctx, c, sub)
		cr := CourseResult{Submission: sub}
		if err != nil {
			cr.Err = err
		}
		if res != nil {
			cr.Result = *res
		}
		results = append(results, cr)
		buf.Reset()
	}
	return results, nil
}

// CourseResult pairs a submission with its outcome.
type CourseResult struct {
	Submission workload.Submission
	Result     core.JobResult
	Err        error
}
