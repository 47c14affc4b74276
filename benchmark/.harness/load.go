package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	jobTimeout    = 30 * time.Second
	readBackEvery = 10
)

// job is one `rai run` as the student saw it. Times are seconds since
// the round's epoch.
type job struct {
	Student int     `json:"student"`
	Due     float64 `json:"due"` // open loop: when the burst was due; closed loop: equal to Spawn
	Spawn   float64 `json:"spawn"`
	Exit    float64 `json:"exit"`
	ID      string  `json:"id"`
	CPUms   float64 `json:"cpu_ms"` // the rai process's own user+system time
	OK      bool    `json:"ok"`
	Err     string  `json:"err,omitempty"`
	Span    int64   `json:"span,omitempty"` // the job's root span in a traced round
}

// latencyMS is what the student waited: from the moment they meant to
// submit until rai returned.
func (j *job) latencyMS() float64 { return (j.Exit - j.Due) * 1000 }

type student struct {
	idx     int
	proj    *project
	profile string
	broker  string // host:port this student's rai is pointed at
	fsURL   string
}

// creds is one entry of keys.json, the file the operator hands the
// worker; the same three values make a student's .rai.profile.
type creds struct {
	UserName  string `json:"user_name"`
	AccessKey string `json:"access_key"`
	SecretKey string `json:"secret_key"`
}

const keyAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-"

func newCreds(rng *rand.Rand, user string) creds {
	key := func() string {
		b := make([]byte, 26)
		for i := range b {
			b[i] = keyAlphabet[rng.Intn(len(keyAlphabet))]
		}
		return string(b)
	}
	return creds{UserName: user, AccessKey: key(), SecretKey: key()}
}

func (c creds) profile() string {
	return fmt.Sprintf("RAI_USER_NAME='%s'\nRAI_ACCESS_KEY='%s'\nRAI_SECRET_KEY='%s'\n",
		c.UserName, c.AccessKey, c.SecretKey)
}

var (
	succeededRE   = regexp.MustCompile(`(?m)^job (\S+) succeeded`)
	correctnessRE = regexp.MustCompile(`(?m)^Correctness: (\S+)`)
	buildOutRE    = regexp.MustCompile(`(?m)^build output: (\S+)/(\S+/\S+/build\.tar\.bz2)$`)
)

// checkOutput verifies what rai printed: the job succeeded, and the
// sandbox saw this turn's tree. want is the canary line of a large
// tree; on the small tree the correctness value is returned for the
// caller to compare across jobs. buildKey is "bucket/key" of /build.
func checkOutput(stdout string, large bool, want string) (id, correctness, buildKey string, err error) {
	m := succeededRE.FindStringSubmatch(stdout)
	if m == nil {
		return "", "", "", errors.New("no `job <id> succeeded` line")
	}
	id = m[1]
	if b := buildOutRE.FindStringSubmatch(stdout); b != nil {
		buildKey = b[1] + "/" + b[2]
	}
	if large {
		if !strings.Contains(stdout, want) {
			return id, "", buildKey, fmt.Errorf("output lacks this turn's canary %q", want)
		}
		return id, "", buildKey, nil
	}
	c := correctnessRE.FindStringSubmatch(stdout)
	if c == nil {
		return id, "", buildKey, errors.New("no `Correctness:` line")
	}
	return id, c[1], buildKey, nil
}

// round is one fresh deployment: set-up (boot and one warm-up job per
// student), one measured window, one drain.
type round struct {
	wl     *workload
	traced bool
	window time.Duration
	seed   uint64
	bins   map[string]string
	dir    string

	epoch    time.Time
	cl       *cluster
	students []*student
	jobSeq   atomic.Int64

	mu          sync.Mutex
	jobs        []job
	correctness string // the value every small job must print
}

// roundResult is what a round leaves behind; it is written to the
// results file as is.
type roundResult struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	WindowS     float64            `json:"window_s"`
	SetupS      float64            `json:"setup_s"`
	WindowStart float64            `json:"window_start"`
	Jobs        []job              `json:"jobs"`
	CPUms       map[string]float64 `json:"cpu_ms"`       // per layer, window start to after drain
	PeakRSSMiB  map[string]float64 `json:"peak_rss_mib"` // per daemon, after drain
	DrainS      float64            `json:"drain_s"`
	DrainCapped bool               `json:"drain_capped"`
	BacklogMax  int                `json:"backlog_max"`

	// Traced rounds only.
	Spans     []span           `json:"-"`
	EdgeBytes map[string]int64 `json:"edge_bytes,omitempty"` // TCP edges, window start to after drain
	EdgeConns map[string]int64 `json:"edge_conns,omitempty"`
}

func (r *round) since(t time.Time) float64 { return t.Sub(r.epoch).Seconds() }

// run executes the round. The cluster and the round's directory are
// gone when it returns, whatever happened.
func (r *round) run(ctx context.Context) (*roundResult, error) {
	defer os.RemoveAll(r.dir)
	defer r.tearDown()
	r.epoch = time.Now()
	rng := rand.New(rand.NewSource(subSeed(r.seed, r.wl.Name, "round")))

	// Generated files only: keys.json for the worker, a profile and a
	// project directory per student.
	var keys []creds
	for i := 0; i < r.wl.Students; i++ {
		keys = append(keys, newCreds(rng, fmt.Sprintf("student-%02d", i)))
	}
	keysPath := filepath.Join(r.dir, "keys.json")
	blob, err := json.Marshal(keys)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(keysPath, blob, 0o600); err != nil {
		return nil, err
	}
	for i, k := range keys {
		home := filepath.Join(r.dir, k.UserName)
		proj, err := newProject(filepath.Join(home, "project"), subSeed(r.seed, r.wl.Name, i), r.wl)
		if err != nil {
			return nil, err
		}
		st := &student{idx: i, proj: proj, profile: filepath.Join(home, ".rai.profile")}
		if err := os.WriteFile(st.profile, []byte(k.profile()), 0o600); err != nil {
			return nil, err
		}
		r.students = append(r.students, st)
	}

	began := time.Now()
	if err := r.setUp(ctx, keysPath); err != nil {
		return nil, err
	}
	res := &roundResult{Workload: r.wl.Name, Traced: r.traced, WindowS: r.window.Seconds(), SetupS: time.Since(began).Seconds()}
	tr := r.cl.tr

	cpu0, err := r.cl.cpuTicks()
	if err != nil {
		return nil, err
	}
	bytes0, conns0 := map[string]int64{}, map[string]int64{}
	if tr != nil {
		bytes0, conns0 = tr.edgeTotals()
	}
	start := time.Now()
	res.WindowStart = r.since(start)
	if r.wl.Loop == "open" {
		res.BacklogMax = r.openLoop(ctx, start)
	} else {
		r.closedLoop(ctx, start)
		res.BacklogMax = r.wl.Students
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	drained, capped, err := r.cl.drain(ctx)
	if err != nil {
		return nil, err
	}
	res.DrainS, res.DrainCapped = drained.Seconds(), capped

	cpu1, err := r.cl.cpuTicks()
	if err != nil {
		return nil, err
	}
	res.CPUms = map[string]float64{}
	for layer, t := range cpu1 {
		res.CPUms[layer] = float64(t-cpu0[layer]) * 1000 / clkTck
	}
	hwm, err := r.cl.perDaemon(readHWMKiB)
	if err != nil {
		return nil, err
	}
	res.PeakRSSMiB = map[string]float64{}
	for layer, kib := range hwm {
		res.PeakRSSMiB[layer] = float64(kib) / 1024
	}
	res.Jobs = r.jobs
	for _, j := range res.Jobs {
		res.CPUms["rai"] += j.CPUms
	}
	if tr != nil {
		res.Spans = tr.snapshot()
		assignJobs(res.Spans, res.Jobs)
		bytes1, conns1 := tr.edgeTotals()
		res.EdgeBytes, res.EdgeConns = map[string]int64{}, map[string]int64{}
		for edge := range bytes1 {
			res.EdgeBytes[edge] = bytes1[edge] - bytes0[edge]
			res.EdgeConns[edge] = conns1[edge] - conns0[edge]
		}
	}
	return res, nil
}

// setUp boots the cluster, points every student at it and has each
// submit once, so that connections, the worker's data volume and the
// chunk store's first layout are paid for before the window.
func (r *round) setUp(ctx context.Context, keysPath string) error {
	var tr *tracer
	if r.traced {
		tr = newTracer(r.epoch)
	}
	var err error
	if r.cl, err = boot(ctx, r.dir, r.bins, keysPath, tr); err != nil {
		return err
	}
	for _, st := range r.students {
		if st.broker, err = tr.tcpEdge("brokerd.from_rai", st.idx, r.cl.broker); err != nil {
			return err
		}
		addr, err := tr.httpEdge("raifs.from_rai", st.idx, r.cl.fs)
		if err != nil {
			return err
		}
		st.fsURL = "http://" + addr
	}
	// The first student warms up alone. raidb creates a collection on
	// first touch, and does so under a read lock when the touch is a find
	// (docstore.DB.coll): the worker's two slots making their first rate-limit
	// query at once kill it with "concurrent map read and map write",
	// about once in 120 boots. One job alone creates every collection.
	r.turn(ctx, r.students[0], time.Time{})
	var wg sync.WaitGroup
	for _, st := range r.students[1:] {
		wg.Add(1)
		go func(st *student) {
			defer wg.Done()
			r.turn(ctx, st, time.Time{})
		}(st)
	}
	wg.Wait()
	warm := r.jobs
	r.jobs = nil
	for _, j := range warm {
		if !j.OK {
			return fmt.Errorf("warm-up job of student %d failed: %s", j.Student, j.Err)
		}
	}
	return nil
}

// tearDown kills the cluster and then closes its proxies, whose pumps
// end when the daemons do.
func (r *round) tearDown() {
	if r.cl == nil {
		return
	}
	r.cl.stop()
	r.cl.tr.close()
}

// closedLoop has every student edit and resubmit with no pause until
// the window ends. A job in flight at that moment is waited for.
func (r *round) closedLoop(ctx context.Context, start time.Time) {
	end := start.Add(r.window)
	var wg sync.WaitGroup
	for _, st := range r.students {
		wg.Add(1)
		go func(st *student) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				r.turn(ctx, st, time.Time{})
			}
		}(st)
	}
	wg.Wait()
}

// openLoop fires a burst of burstSize students every burstEvery,
// whether or not earlier jobs are back. It returns the largest number
// of jobs found unfinished at a burst's due time.
func (r *round) openLoop(ctx context.Context, start time.Time) int {
	rng := rand.New(rand.NewSource(subSeed(r.seed, r.wl.Name, "bursts")))
	bursts := int(r.window / burstEvery)
	// Room for every due time a student can be sent, so the scheduler
	// never waits for a student who is still busy.
	due := make([]chan time.Time, len(r.students))
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	for i, st := range r.students {
		due[i] = make(chan time.Time, bursts)
		wg.Add(1)
		go func(st *student, due <-chan time.Time) {
			defer wg.Done()
			for at := range due {
				if ctx.Err() == nil {
					r.turn(ctx, st, at)
				}
				inFlight.Add(-1)
			}
		}(st, due[i])
	}
	backlog := 0
	for k := 0; k < bursts && ctx.Err() == nil; k++ {
		at := start.Add(time.Duration(k) * burstEvery)
		select {
		case <-time.After(time.Until(at)):
		case <-ctx.Done():
		}
		if n := int(inFlight.Load()); n > backlog {
			backlog = n
		}
		for _, i := range burstOrder(rng, k) {
			inFlight.Add(1)
			due[i] <- at
		}
	}
	for _, ch := range due {
		close(ch)
	}
	wg.Wait()
	return backlog
}

// turn is one edit-and-submit by one student. A zero due time means
// "now" (closed loop).
func (r *round) turn(ctx context.Context, st *student, due time.Time) {
	j := job{Student: st.idx}
	want, err := st.proj.nextTurn()
	if err == nil {
		err = r.submit(ctx, st, &j, due, want)
	}
	j.OK = err == nil
	if err != nil {
		j.Err = err.Error()
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// submit runs the rai CLI exactly as a student would and checks what
// came back.
func (r *round) submit(ctx context.Context, st *student, j *job, due time.Time, want string) error {
	jctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	cmd := exec.CommandContext(jctx, r.bins["rai"],
		"-p", st.proj.dir, "-profile", st.profile, "-broker", st.broker, "-fs", st.fsURL, "run")
	cmd.Dir = filepath.Dir(st.profile)
	cmd.Env = childEnv(cmd.Dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	spawn := time.Now()
	if due.IsZero() {
		due = spawn
	}
	j.Due, j.Spawn = r.since(due), r.since(spawn)
	if r.cl.tr != nil {
		j.Span = r.cl.tr.newID()
	}
	if err := cmd.Start(); err != nil {
		j.Exit = r.since(time.Now())
		return err
	}
	trackChild(cmd.Process.Pid, true)
	err := cmd.Wait()
	j.Exit = r.since(time.Now())
	trackChild(cmd.Process.Pid, false)
	j.CPUms = float64(cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime()) / float64(time.Millisecond)
	if jctx.Err() == context.DeadlineExceeded {
		return fmt.Errorf("no answer within %v", jobTimeout)
	}
	if err != nil {
		return fmt.Errorf("rai: %w: %s", err, lastLine(stderr.String()))
	}
	id, correctness, buildKey, err := checkOutput(stdout.String(), r.wl.Large, want)
	j.ID = id
	if err != nil {
		return err
	}
	if !r.wl.Large {
		r.mu.Lock()
		if r.correctness == "" {
			r.correctness = correctness
		}
		expect := r.correctness
		r.mu.Unlock()
		if correctness != expect {
			return fmt.Errorf("Correctness %s, earlier jobs printed %s", correctness, expect)
		}
	}
	if r.jobSeq.Add(1)%readBackEvery == 0 {
		return r.readBack(ctx, id, buildKey)
	}
	return nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// readBack asks the stores, over plain HTTP and past any proxy, whether
// they agree with what rai told the student: the job's document says
// succeeded and its /build archive is there.
func (r *round) readBack(ctx context.Context, id, buildKey string) error {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	query := fmt.Sprintf(`{"filter":{"job_id":%q}}`, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+r.cl.db+"/c/jobs/find", strings.NewReader(query))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	var found struct {
		Docs []struct {
			Status string `json:"status"`
		} `json:"docs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&found)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read-back: job document: %w", err)
	}
	if len(found.Docs) != 1 || found.Docs[0].Status != "succeeded" {
		return fmt.Errorf("read-back: raidb holds %d documents for job %s, want one with status succeeded", len(found.Docs), id)
	}
	if buildKey == "" {
		return errors.New("read-back: rai printed no build output location")
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodHead, "http://"+r.cl.fs+"/o/"+buildKey, nil)
	if err != nil {
		return err
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read-back: HEAD /o/%s answered %d", buildKey, resp.StatusCode)
	}
	return nil
}
