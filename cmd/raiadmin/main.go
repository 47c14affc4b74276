// Command raiadmin bundles the instructor utilities of the paper's §VI:
// generating and delivering authorization keys from the class roster,
// inspecting the competition ranking, downloading student final
// submissions, rerunning them for grading, and producing grade reports.
//
// Usage:
//
//	raiadmin keygen  -roster roster.csv -out keys.json [-outbox dir] [-domain illinois.edu]
//	raiadmin teamgen -teams teams.csv -out keys.json
//	raiadmin ranking -db url [-hist] [-top 30]
//	raiadmin download -db url -fs url -out dir [-cleanup]
//	raiadmin rerun   -db url -fs url -broker addr -keys keys.json -team NAME [-n 5]
//	raiadmin grade   -db url [-manual manual.csv] [-target-accuracy 0.9]
//	raiadmin top     [-filter prefix] [-buckets] [-json] URL [URL...]
//	raiadmin collect -broker addr -db url [-metrics-addr addr] [-retain 24h]
//	                 [-tail-linger 2s] [-tail-keep 0.1] [-tail-slow-quantile 0.99]
//	                 [-slo config.json] [-slo-scrape url,url] [-slo-interval 15s]
//	                 [-ready-file path]
//	raiadmin health  [-slo config.json] [-json] URL [URL...]
//	raiadmin alerts  [-slo config.json] [-json] URL [URL...]
//	raiadmin trace   [-db url] JOB_ID
//	raiadmin trace   -exemplar slowest -metrics url [-metric prefix] [-db url]
//	raiadmin logs    [-db url] [-follow] JOB_ID
//	raiadmin version
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"rai/internal/brokerd"
	"rai/internal/clock"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/grading"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/ranking"
	"rai/internal/stats"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: raiadmin keygen|teamgen|ranking|download|rerun|grade|top|collect|health|alerts|trace|logs|version [flags]")
		return 2
	}
	// Ctrl-C cancels whatever database or file-server call the command
	// is waiting on instead of leaving it wedged on a dead daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch args[0] {
	case "version", "-version", "--version":
		fmt.Fprintln(stdout, telemetry.NewStamp("raiadmin", version))
		return 0
	case "keygen":
		return keygen(args[1:], stdout, stderr)
	case "teamgen":
		return teamgen(args[1:], stdout, stderr)
	case "ranking":
		return showRanking(ctx, args[1:], stdout, stderr)
	case "download":
		return download(ctx, args[1:], stdout, stderr)
	case "rerun":
		return rerun(ctx, args[1:], stdout, stderr)
	case "grade":
		return grade(ctx, args[1:], stdout, stderr)
	case "top":
		return top(args[1:], stdout, stderr)
	case "collect":
		return collect(args[1:], stdout, stderr, nil)
	case "health":
		return health(args[1:], stdout, stderr)
	case "alerts":
		return alerts(args[1:], stdout, stderr)
	case "trace":
		return traceCmd(ctx, args[1:], stdout, stderr)
	case "logs":
		return logsCmd(ctx, args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "raiadmin: unknown command %q\n", args[0])
		return 2
	}
}

// keygen implements §VI "Sending Authorization Keys": roster CSV in,
// keys.json plus one templated email per student out.
func keygen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin keygen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rosterPath := fs.String("roster", "", "class roster CSV: firstname,lastname,userid")
	outPath := fs.String("out", "keys.json", "credentials output file")
	outboxDir := fs.String("outbox", "", "directory receiving rendered emails (optional)")
	domain := fs.String("domain", "illinois.edu", "email domain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rosterPath == "" {
		fmt.Fprintln(stderr, "raiadmin keygen: -roster is required")
		return 2
	}
	rosterData, err := os.ReadFile(*rosterPath)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
		return 1
	}
	roster, err := auth.ParseRoster(rosterData)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
		return 1
	}
	reg := auth.NewRegistry()
	outbox := &auth.Outbox{}
	mailer := &auth.KeyMailer{Registry: reg, Outbox: outbox, Domain: *domain}
	issued, err := mailer.Run(roster)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
		return 1
	}
	var creds []auth.Credentials
	for _, c := range issued {
		creds = append(creds, c)
	}
	sort.Slice(creds, func(i, j int) bool { return creds[i].UserName < creds[j].UserName })
	blob, err := json.MarshalIndent(creds, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*outPath, blob, 0o600); err != nil {
		fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
		return 1
	}
	if *outboxDir != "" {
		if err := os.MkdirAll(*outboxDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
			return 1
		}
		for _, m := range outbox.Messages() {
			name := strings.ReplaceAll(m.To, "@", "_at_") + ".eml"
			content := fmt.Sprintf("To: %s\nSubject: %s\n\n%s", m.To, m.Subject, m.Body)
			if err := os.WriteFile(filepath.Join(*outboxDir, name), []byte(content), 0o600); err != nil {
				fmt.Fprintf(stderr, "raiadmin keygen: %v\n", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "issued %d credentials -> %s", len(issued), *outPath)
	if *outboxDir != "" {
		fmt.Fprintf(stdout, "; %d emails -> %s", len(outbox.Messages()), *outboxDir)
	}
	fmt.Fprintln(stdout)
	return 0
}

// teamgen issues shared credentials per team from a "team,member1;member2"
// CSV — the project is done in teams of 2–4 (§I) sharing one identity.
func teamgen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin teamgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	teamsPath := fs.String("teams", "", "teams CSV: teamname,member1;member2;...")
	outPath := fs.String("out", "keys.json", "credentials output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *teamsPath == "" {
		fmt.Fprintln(stderr, "raiadmin teamgen: -teams is required")
		return 2
	}
	data, err := os.ReadFile(*teamsPath)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin teamgen: %v\n", err)
		return 1
	}
	r := csv.NewReader(strings.NewReader(string(data)))
	r.FieldsPerRecord = 2
	rows, err := r.ReadAll()
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin teamgen: %v\n", err)
		return 1
	}
	var teams []auth.Team
	for i, row := range rows {
		if i == 0 && strings.EqualFold(row[0], "team") {
			continue
		}
		teams = append(teams, auth.Team{
			Name:    strings.TrimSpace(row[0]),
			Members: strings.Split(strings.TrimSpace(row[1]), ";"),
		})
	}
	reg := auth.NewRegistry()
	issued, err := auth.IssueTeams(reg, teams)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin teamgen: %v\n", err)
		return 1
	}
	var creds []auth.Credentials
	for _, c := range issued {
		creds = append(creds, c)
	}
	sort.Slice(creds, func(i, j int) bool { return creds[i].UserName < creds[j].UserName })
	blob, err := json.MarshalIndent(creds, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin teamgen: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*outPath, blob, 0o600); err != nil {
		fmt.Fprintf(stderr, "raiadmin teamgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "issued %d team credentials -> %s\n", len(creds), *outPath)
	return 0
}

// showRanking prints the instructor leaderboard, optionally with the
// Figure 2 histogram.
func showRanking(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin ranking", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	hist := fs.Bool("hist", false, "print the runtime histogram (Figure 2)")
	top := fs.Int("top", 30, "histogram team count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lb := &ranking.Leaderboard{DB: docstore.NewClient(*dbURL)}
	entries, err := lb.View(ctx, "")
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin ranking: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, ranking.Format(entries))
	if *hist {
		bins, err := lb.Histogram(ctx, *top, 0.1)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin ranking: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, ranking.FormatHistogram(bins))
	}
	return 0
}

// download fetches every final submission to a local directory (§VI).
func download(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin download", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	fsURL := fs.String("fs", "http://127.0.0.1:7401", "file server URL")
	outDir := fs.String("out", "submissions", "output directory")
	cleanup := fs.Bool("cleanup", false, "delete build intermediates and datasets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dl := &grading.Downloader{
		DB:      docstore.NewClient(*dbURL),
		Objects: objstore.NewClient(*fsURL),
		Cleanup: *cleanup,
	}
	mem := vfs.New()
	teams, err := dl.DownloadAll(ctx, mem, "/")
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin download: %v\n", err)
		return 1
	}
	// Materialize to disk.
	err = mem.Walk("/", func(p string, fi vfs.FileInfo) error {
		if p == "/" {
			return nil
		}
		hostPath := filepath.Join(*outDir, filepath.FromSlash(strings.TrimPrefix(p, "/")))
		if fi.Dir {
			return os.MkdirAll(hostPath, 0o755)
		}
		data, err := mem.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(hostPath), 0o755); err != nil {
			return err
		}
		return os.WriteFile(hostPath, data, 0o644)
	})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin download: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "downloaded %d final submissions to %s\n", len(teams), *outDir)
	return 0
}

// rerun resubmits a team's recorded final archive n times and prints the
// minimum observed runtime (§VI "rerun the students' submissions
// multiple times and display the minimum time").
func rerun(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin rerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	fsURL := fs.String("fs", "http://127.0.0.1:7401", "file server URL")
	brokerAddr := fs.String("broker", "127.0.0.1:7400", "broker address")
	keysPath := fs.String("keys", "keys.json", "credentials file")
	team := fs.String("team", "", "team to rerun")
	n := fs.Int("n", 5, "rerun count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *team == "" {
		fmt.Fprintln(stderr, "raiadmin rerun: -team is required")
		return 2
	}
	keysData, err := os.ReadFile(*keysPath)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: %v\n", err)
		return 1
	}
	var creds []auth.Credentials
	if err := json.Unmarshal(keysData, &creds); err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: %v\n", err)
		return 1
	}
	var teamCreds auth.Credentials
	for _, c := range creds {
		if c.UserName == *team {
			teamCreds = c
		}
	}
	if teamCreds.UserName == "" {
		fmt.Fprintf(stderr, "raiadmin rerun: team %q not in %s\n", *team, *keysPath)
		return 1
	}
	db := docstore.NewClient(*dbURL)
	row, err := db.FindOne(ctx, core.CollRankings, docstore.M{"team": *team})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: no final submission for %s: %v\n", *team, err)
		return 1
	}
	jobID, _ := row["job_id"].(string)
	job, err := db.FindOne(ctx, core.CollJobs, docstore.M{"job_id": jobID})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: %v\n", err)
		return 1
	}
	queue, err := brokerd.NewQueue(ctx, *brokerAddr, netx.Policy{}, 0)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: %v\n", err)
		return 1
	}
	defer queue.Close()
	client := &core.Client{
		Creds: teamCreds, Queue: queue,
		Objects: objstore.NewClient(*fsURL),
		Stdout:  io.Discard,
		LogWait: 30 * time.Minute,
	}
	bucket, _ := job["upload_bucket"].(string)
	key, _ := job["upload_key"].(string)
	if bucket == "" {
		bucket = core.BucketUploads
	}
	res, err := grading.RerunMin(*team, *n, func(string) (time.Duration, float64, error) {
		r, err := client.ResubmitContext(ctx, core.KindSubmit, bucket, key)
		if err != nil {
			return 0, 0, err
		}
		return r.InternalTimer, r.Accuracy, nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin rerun: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "team %s: best %.3fs over %d runs (accuracy %.4f, %d failures)\n",
		*team, res.Best.Seconds(), len(res.Runs), res.Accuracy, res.Failures)
	return 0
}

// grade combines automated rerun timings (from the ranking table) with
// manual scores and prints per-team grade reports (§VII).
func grade(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin grade", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	manualPath := fs.String("manual", "", "CSV of team,code_quality,report scores")
	target := fs.Float64("target-accuracy", 0.9, "required accuracy")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	db := docstore.NewClient(*dbURL)
	rows, err := db.Find(ctx, core.CollRankings, docstore.M{}, docstore.FindOpts{Sort: []string{"runtime_s"}})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin grade: %v\n", err)
		return 1
	}
	var reruns []*grading.RerunResult
	for _, r := range rows {
		team, _ := r["team"].(string)
		rt, _ := r["runtime_s"].(float64)
		acc, _ := r["accuracy"].(float64)
		reruns = append(reruns, &grading.RerunResult{
			Team: team, Best: time.Duration(rt * float64(time.Second)),
			Accuracy: acc, Runs: []time.Duration{time.Duration(rt * float64(time.Second))},
		})
	}
	manual := map[string]grading.ManualScores{}
	if *manualPath != "" {
		m, err := loadManual(*manualPath)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin grade: %v\n", err)
			return 1
		}
		manual = m
	}
	grader := &grading.Grader{TargetAccuracy: *target}
	grades, err := grader.GradeClass(reruns, manual)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin grade: %v\n", err)
		return 1
	}
	for _, g := range grades {
		fmt.Fprintln(stdout, grading.FormatReport(g))
	}
	return 0
}

// top scrapes one or more /metrics endpoints (raibroker, raifs, raidb,
// raiworker daemons started with -metrics-addr) and renders the
// operator's snapshot of the deployment: every sample in one aligned
// table, endpoint by endpoint. Histogram buckets are folded away unless
// -buckets is set; _sum/_count stay visible so rates and means can be
// read off directly.
func top(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	filter := fs.String("filter", "", "only show metric names with this prefix")
	buckets := fs.Bool("buckets", false, "include per-bucket histogram series")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of the aligned table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	urls := fs.Args()
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "raiadmin top: at least one metrics URL is required")
		return 2
	}
	// topEndpoint is the per-URL scrape in the -json output; one element
	// per URL, in argument order, so scripts can zip results to requests.
	type topSample struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels,omitempty"`
		Value  float64           `json:"value"`
	}
	type topEndpoint struct {
		Endpoint      string      `json:"endpoint"`
		UptimeSeconds float64     `json:"uptime_seconds,omitempty"`
		Samples       []topSample `json:"samples"`
	}
	var report []topEndpoint
	tbl := &stats.Table{Header: []string{"endpoint", "metric", "labels", "value"}}
	for _, u := range urls {
		snap, err := scrapeMetrics(u)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin top: %s: %v\n", u, err)
			return 1
		}
		short := strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
		short = strings.TrimSuffix(short, "/metrics")
		ep := topEndpoint{Endpoint: short, Samples: []topSample{}}
		// Derive uptime from rai_process_start_time_seconds (published
		// by every daemon next to rai_build_info).
		if start, ok := snap.Value("rai_process_start_time_seconds"); ok && start > 0 {
			up := clock.Real{}.Now().Sub(time.Unix(0, int64(start*float64(time.Second)))).Round(time.Second)
			ep.UptimeSeconds = up.Seconds()
			if *filter == "" || strings.HasPrefix("uptime", *filter) {
				tbl.AddRow(short, "uptime", "-", up.String())
			}
		}
		for _, s := range snap.Samples {
			if *filter != "" && !strings.HasPrefix(s.Name, *filter) {
				continue
			}
			if !*buckets && strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			ep.Samples = append(ep.Samples, topSample{Name: s.Name, Labels: s.Labels, Value: s.Value})
			tbl.AddRow(short, s.Name, formatLabels(s.Labels), strconv.FormatFloat(s.Value, 'g', -1, 64))
		}
		report = append(report, ep)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "raiadmin top: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, tbl.String())
	return 0
}

// scrapeMetrics fetches and parses one Prometheus text endpoint.
func scrapeMetrics(url string) (*telemetry.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return telemetry.ParseText(resp.Body)
}

// formatLabels renders a label set in sorted key order.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, labels[k]))
	}
	return strings.Join(parts, ",")
}

// loadManual parses "team,code_quality,report" CSV rows.
func loadManual(path string) (map[string]grading.ManualScores, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := csv.NewReader(strings.NewReader(string(data)))
	r.FieldsPerRecord = 3
	rows, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	out := map[string]grading.ManualScores{}
	for i, row := range rows {
		if i == 0 && strings.EqualFold(row[0], "team") {
			continue
		}
		cq, err1 := strconv.ParseFloat(strings.TrimSpace(row[1]), 64)
		rp, err2 := strconv.ParseFloat(strings.TrimSpace(row[2]), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("manual scores row %d: bad numbers", i+1)
		}
		out[strings.TrimSpace(row[0])] = grading.ManualScores{CodeQuality: cq, Report: rp}
	}
	return out, nil
}
