// Command rai is the student client (paper §IV "RAI Client"): a single
// dependency-free executable that submits the current project directory
// to the RAI service, streams the build output back to the terminal, and
// checks the team's competition ranking.
//
// Usage:
//
//	rai [flags] run       submit a development job (rai-build.yml or default)
//	rai [flags] submit    make a final submission (enforced build file)
//	rai [flags] session   open an interactive container (worker must allow it)
//	rai [flags] ranking   show the anonymized competition leaderboard
//	rai version           print embedded build information
//
// Credentials are read from $HOME/.rai.profile (Listing 3) or -profile.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/ranking"
	"rai/internal/release"
	"rai/internal/telemetry"
)

// buildInfo is stamped by the CI pipeline; the dev build carries
// placeholders (paper §VII: commit and date are embedded so bug reports
// pinpoint the responsible commit).
var buildInfo = release.BuildInfo{
	Version: "0.2.0-dev", Commit: "worktree", Branch: "devel",
	BuildDate: time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC),
	OS:        "linux", Arch: "amd64",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rai", flag.ContinueOnError)
	fs.SetOutput(stderr)
	projectDir := fs.String("p", ".", "project directory")
	profilePath := fs.String("profile", "", "credentials file (default $HOME/.rai.profile)")
	brokerAddr := fs.String("broker", "127.0.0.1:7400", "broker address")
	fsURL := fs.String("fs", "http://127.0.0.1:7401", "file server URL")
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	timeout := fs.Duration("timeout", 30*time.Minute, "job wait timeout")
	dialTimeout := fs.Duration("dial-timeout", brokerd.DefaultDialTimeout, "broker dial timeout per attempt")
	rpcAttempts := fs.Int("rpc-attempts", netx.DefaultMaxAttempts, "attempts per RPC before giving up")
	rpcTimeout := fs.Duration("rpc-timeout", 0, "per-attempt RPC deadline (0 = each service's default)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling rate for this submission's trace (decided at the root, propagated everywhere)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rai [flags] run|submit|session|ranking|version")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	cmd := fs.Arg(0)
	if cmd == "version" {
		fmt.Fprintln(stdout, buildInfo)
		fmt.Fprintln(stdout, telemetry.NewStamp("rai", buildInfo.Version))
		return 0
	}

	creds, err := loadProfile(*profilePath)
	if err != nil {
		fmt.Fprintf(stderr, "rai: %v\n", err)
		fmt.Fprintln(stderr, "rai: create $HOME/.rai.profile with the keys from your course email")
		return 1
	}

	// Ctrl-C stops waiting on the job rather than killing the terminal
	// state mid-stream; a second Ctrl-C (after stop restores the default
	// handler) force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rpc := rpcConfig{dial: *dialTimeout, policy: netx.Policy{MaxAttempts: *rpcAttempts, PerAttempt: *rpcTimeout}}

	switch cmd {
	case "run", "submit":
		return submit(ctx, cmd, creds, *projectDir, *brokerAddr, *fsURL, *timeout, rpc, *traceSample, stdout, stderr)
	case "ranking":
		return showRanking(ctx, creds, *dbURL, stdout, stderr)
	case "session":
		return session(ctx, creds, *projectDir, *brokerAddr, *fsURL, *timeout, rpc, *traceSample, os.Stdin, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "rai: unknown command %q\n", cmd)
		return 2
	}
}

// rpcConfig carries the resilience knobs shared by every service client
// the CLI builds.
type rpcConfig struct {
	dial   time.Duration
	policy netx.Policy
}

func (r rpcConfig) objects(baseURL string) *objstore.Client {
	return objstore.NewClient(baseURL, objstore.WithClientPolicy(r.policy))
}

// observe wires the CLI's spans and log events onto the broker so the
// collector can assemble the job timeline (`raiadmin trace <job_id>`).
// Records ship in the background and nothing is printed locally; the
// returned func flushes whatever is pending before the process exits.
// The CLI is the trace root: when sampleRate < 1 the returned sampler
// decides keep/drop here, and the verdict rides the job envelope so
// every downstream service agrees without coordination.
func observe(ctx context.Context, queue broker.Queue, sampleRate float64) (*telemetry.Tracer, *telemetry.Sampler, *telemetry.Logger, func()) {
	exp := telemetry.NewExporter(ctx, "rai", core.ShipTelemetry(queue))
	var sampler *telemetry.Sampler
	if sampleRate < 1 {
		sampler = telemetry.NewSampler(sampleRate)
	}
	tracer := telemetry.NewTracer(256, telemetry.WithSpanSink(sampler.SpanSink(exp.ExportSpan)),
		telemetry.WithTracerInstance(telemetry.NewInstanceID("rai")))
	logger := telemetry.NewLogger("rai", telemetry.WithLogSink(exp.ExportEvent))
	return tracer, sampler, logger, func() { exp.Close() }
}

// session opens an interactive container and relays stdin commands —
// the §VIII future-work feature ("interactive sessions to enable more
// debugging and profiling tools").
func session(ctx context.Context, creds auth.Credentials, dir, brokerAddr, fsURL string, timeout time.Duration, rpc rpcConfig, sampleRate float64, stdin io.Reader, stdout, stderr io.Writer) int {
	m, src, err := cas.BuildDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "rai: hashing project tree: %v\n", err)
		return 1
	}
	queue, err := brokerd.NewQueue(ctx, brokerAddr, rpc.policy, rpc.dial)
	if err != nil {
		fmt.Fprintf(stderr, "rai: connecting to broker: %v\n", err)
		return 1
	}
	defer queue.Close()
	tracer, sampler, logger, flushTel := observe(ctx, queue, sampleRate)
	defer flushTel()
	client := &core.Client{
		Creds: creds, Queue: queue,
		Objects: rpc.objects(fsURL),
		Stdout:  stdout,
		LogWait: timeout,
		Tracer:  tracer,
		Sampler: sampler,
		Log:     logger,
	}
	sess, err := client.OpenSession(ctx, m, src)
	if err != nil {
		fmt.Fprintf(stderr, "rai: opening session: %v\n", err)
		return 1
	}
	defer sess.Close()
	fmt.Fprintln(stdout, "interactive session open; type commands, 'exit' to finish")
	scanner := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "rai> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "exit" {
			break
		}
		res, err := sess.Run(ctx, line)
		if err != nil {
			fmt.Fprintf(stderr, "rai: %v\n", err)
			return 1
		}
		if res.ExitCode != 0 {
			fmt.Fprintf(stdout, "(exit %d)\n", res.ExitCode)
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintf(stderr, "rai: closing session: %v\n", err)
		return 1
	}
	if sess.Result != nil && sess.Result.BuildKey != "" {
		fmt.Fprintf(stdout, "session build output: %s/%s\n", sess.Result.BuildBucket, sess.Result.BuildKey)
	}
	return 0
}

// submit runs the §V client sequence against a live deployment.
func submit(ctx context.Context, cmd string, creds auth.Credentials, dir, brokerAddr, fsURL string, timeout time.Duration, rpc rpcConfig, sampleRate float64, stdout, stderr io.Writer) int {
	// Client step 1: the project directory must exist; rai-build.yml is
	// optional (the Listing 1 default applies).
	info, err := os.Stat(dir)
	if err != nil || !info.IsDir() {
		fmt.Fprintf(stderr, "rai: project directory %s does not exist\n", dir)
		return 1
	}
	var spec *build.Spec
	specPath := filepath.Join(dir, build.FileName)
	if data, err := os.ReadFile(specPath); err == nil {
		spec, err = build.Parse(data)
		if err != nil {
			fmt.Fprintf(stderr, "rai: %s: %v\n", build.FileName, err)
			return 1
		}
	} else {
		spec = build.Default()
		fmt.Fprintf(stdout, "no %s found; using the course default\n", build.FileName)
	}
	kind := core.KindRun
	if cmd == "submit" {
		kind = core.KindSubmit
		// Final submissions require USAGE and report.pdf (§V).
		for _, f := range []string{"USAGE", "report.pdf"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				fmt.Fprintf(stderr, "rai: final submission requires %s\n", f)
				return 1
			}
		}
	}

	queue, err := brokerd.NewQueue(ctx, brokerAddr, rpc.policy, rpc.dial)
	if err != nil {
		fmt.Fprintf(stderr, "rai: connecting to broker: %v\n", err)
		return 1
	}
	defer queue.Close()
	tracer, sampler, logger, flushTel := observe(ctx, queue, sampleRate)
	defer flushTel()
	client := &core.Client{
		Creds:   creds,
		Queue:   queue,
		Objects: rpc.objects(fsURL),
		Stdout:  stdout,
		LogWait: timeout,
		Tracer:  tracer,
		Sampler: sampler,
		Log:     logger,
	}

	// Step 3: move the project (DESIGN.md §16): hash the tree into a
	// chunk manifest, send only chunks the server lacks, then enqueue.
	m, src, err := cas.BuildDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "rai: hashing project tree: %v\n", err)
		return 1
	}
	res, err := client.Submit(ctx, kind, spec, m, src)
	if res != nil && res.Transfer != nil {
		t := res.Transfer
		if t.SentBytes < t.TotalBytes {
			fmt.Fprintf(stdout, "transfer: %d of %d bytes sent, %d of %d chunks reused (%.1f%% deduplicated)\n",
				t.SentBytes, t.TotalBytes, t.ChunksTotal-t.ChunksSent, t.ChunksTotal, 100*t.DedupRatio())
		} else {
			// Tiny trees: the manifest itself outweighs the content, so an
			// "X of Y" framing would read as nonsense.
			fmt.Fprintf(stdout, "transfer: %d bytes sent for a %d-byte tree (%d chunks)\n",
				t.SentBytes, t.TotalBytes, t.ChunksTotal)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "rai: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "job %s %s (elapsed %.1fs)\n", res.JobID, res.Status, res.Elapsed.Seconds())
	if res.BuildKey != "" {
		fmt.Fprintf(stdout, "build output: %s/%s\n", res.BuildBucket, res.BuildKey)
	}
	if res.Status != core.StatusSucceeded {
		return 1
	}
	return 0
}

// showRanking prints the anonymized leaderboard (§VI).
func showRanking(ctx context.Context, creds auth.Credentials, dbURL string, stdout, stderr io.Writer) int {
	lb := &ranking.Leaderboard{DB: docstore.NewClient(dbURL)}
	entries, err := lb.View(ctx, creds.UserName)
	if err != nil {
		fmt.Fprintf(stderr, "rai: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, ranking.Format(entries))
	if rank, total, err := lb.RankOf(ctx, creds.UserName); err == nil {
		fmt.Fprintf(stdout, "\nyour team is ranked %d of %d\n", rank, total)
	}
	return 0
}

// loadProfile reads credentials from path or $HOME/.rai.profile.
func loadProfile(path string) (auth.Credentials, error) {
	if path == "" {
		home, err := os.UserHomeDir()
		if err != nil {
			return auth.Credentials{}, err
		}
		path = filepath.Join(home, auth.ProfileFileName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return auth.Credentials{}, err
	}
	return auth.ParseProfile(data)
}
