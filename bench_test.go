// Benchmark harness: one benchmark per table and figure in the paper
// (IDs in DESIGN.md §3), the ablation benches of DESIGN.md §4, and
// micro-benchmarks of the substrates. Run:
//
//	go test -bench=. -benchmem
package rai_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/build"
	"rai/internal/bzip2w"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/grading"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/release"
	"rai/internal/sandbox"
	"rai/internal/scaling"
	"rai/internal/sim"
	"rai/internal/vfs"
	"rai/internal/workload"
	"rai/internal/yamlite"
)

// course is the fall 2016 term, generated once (deterministic).
var bg = context.Background()

var (
	courseOnce sync.Once
	courseVal  *workload.Course
)

func fall2016() *workload.Course {
	courseOnce.Do(func() { courseVal = workload.Generate(workload.Fall2016()) })
	return courseVal
}

// ---- Table I ----

// BenchmarkTable1FeatureMatrix regenerates the Table I comparison.
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if text := sim.FormatTable1(); len(text) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- Figure 1 ----

// BenchmarkFigure1EndToEndJob measures one full job through the Figure 1
// architecture: pack, upload, queue, sandbox build + inference, /build
// archive, database record, log streaming.
func BenchmarkFigure1EndToEndJob(b *testing.B) {
	d, err := sim.NewDeployment(sim.DeployConfig{RateLimit: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient("bench-team", io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	at := d.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Minute)
		res, err := d.RunSubmission(context.Background(), c, workload.Submission{
			Time: at, Team: "bench-team", Kind: core.KindRun,
			Spec: project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "bench-team"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != core.StatusSucceeded {
			b.Fatalf("status %s", res.Status)
		}
	}
}

// ---- Listings 1 and 2 ----

// BenchmarkListing1Parse parses the default rai-build.yml.
func BenchmarkListing1Parse(b *testing.B) {
	blob, err := build.Default().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.Parse(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListing2SubmissionSpec validates the enforced final spec.
func BenchmarkListing2SubmissionSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := build.Submission().Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2 ----

// BenchmarkFigure2RuntimeHistogram replays all final submissions and
// bins the top-30 runtimes (0.1 s quanta).
func BenchmarkFigure2RuntimeHistogram(b *testing.B) {
	course := fall2016()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure2(context.Background(), course)
		if err != nil {
			b.Fatal(err)
		}
		if res.Teams != 58 {
			b.Fatalf("teams = %d", res.Teams)
		}
	}
}

// ---- Figure 3 ----

// BenchmarkFigure3DownloadMatrix runs the CI cross-compile fan-out for
// both branches and renders the download table.
func BenchmarkFigure3DownloadMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ci := release.NewCI("rai-client", "https://dl", nil)
		ci.Now = func() time.Time { return time.Unix(1479600000, 0) }
		if _, err := ci.Push(release.BranchStable, "aaaa", "0.2.1"); err != nil {
			b.Fatal(err)
		}
		if _, err := ci.Push(release.BranchDevel, "bbbb", "0.3.0"); err != nil {
			b.Fatal(err)
		}
		if rows := ci.Table(); len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---- Figure 4 ----

// BenchmarkFigure4SubmissionTimeline builds the last-two-weeks hourly
// series (30,782 submissions in the paper).
func BenchmarkFigure4SubmissionTimeline(b *testing.B) {
	course := fall2016()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Figure4(course)
		if res.Total < 25_000 {
			b.Fatalf("total = %d", res.Total)
		}
	}
}

// ---- §VII aggregates (S1) ----

// BenchmarkCourseStats replays the full 41k-job term and totals the
// §VII quantities (submissions, upload GB, log GB).
func BenchmarkCourseStats(b *testing.B) {
	course := fall2016()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.Stats(course)
		if err != nil {
			b.Fatal(err)
		}
		if s.TotalSubmissions < 38_000 {
			b.Fatalf("submissions = %d", s.TotalSubmissions)
		}
	}
}

// ---- provisioning (S2) ----

// BenchmarkElasticScaling replays the three §VII provisioning phases.
func BenchmarkElasticScaling(b *testing.B) {
	course := fall2016()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := sim.ResourceUsagePhases(course)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 3 {
			b.Fatal("phases")
		}
	}
}

// ---- baseline (B1) ----

// BenchmarkBaselineFixedCluster compares fixed fleets against elastic
// provisioning on the deadline-burst window.
func BenchmarkBaselineFixedCluster(b *testing.B) {
	course := fall2016()
	from := course.Cfg.Deadline.Add(-14 * 24 * time.Hour)
	to := course.Cfg.Deadline.Add(time.Hour)
	policies := []scaling.Policy{
		scaling.FixedPolicy{N: 4},
		scaling.FixedPolicy{N: 30},
		scaling.ElasticPolicy{Min: 4, Max: 30, SlotsPerInstance: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := sim.ComparePolicies(course, from, to, policies)
		if err != nil {
			b.Fatal(err)
		}
		if out[0].WaitP95 <= out[1].WaitP95 {
			b.Fatal("fixed-4 did not oversubscribe")
		}
	}
}

// ---- ablations (DESIGN.md §4) ----

// BenchmarkWorkerConcurrencyJitter quantifies why the course switched to
// single-job workers for benchmarking (§V): it measures the runtime
// dispersion of the real parallel CNN kernel with and without co-runners
// on the same machine and reports the max/min spread as a metric.
func BenchmarkWorkerConcurrencyJitter(b *testing.B) {
	nw := cnn.NewNetwork(408)
	ds, err := cnn.SynthesizeDataset(nw, 9, 16)
	if err != nil {
		b.Fatal(err)
	}
	measure := func(corunners int) float64 {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < corunners; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						nw.Forward(cnn.ImplParallel, ds.Images)
					}
				}
			}()
		}
		lo, hi := math.MaxFloat64, 0.0
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			nw.Forward(cnn.ImplParallel, ds.Images)
			el := time.Since(t0).Seconds()
			if el < lo {
				lo = el
			}
			if el > hi {
				hi = el
			}
		}
		close(stop)
		wg.Wait()
		return hi / lo
	}
	b.ResetTimer()
	var solo, shared float64
	for i := 0; i < b.N; i++ {
		solo = measure(0)
		shared = measure(3)
	}
	b.ReportMetric(solo, "spread-single-job")
	b.ReportMetric(shared, "spread-multi-job")
}

// BenchmarkRerunMinStability quantifies the §VI grading choice: the
// minimum of N reruns is a far more stable statistic than a single run.
// Metrics report the relative spread of each estimator over trials.
func BenchmarkRerunMinStability(b *testing.B) {
	nw := cnn.NewNetwork(408)
	ds, err := cnn.SynthesizeDataset(nw, 10, 8)
	if err != nil {
		b.Fatal(err)
	}
	timeOnce := func() time.Duration {
		t0 := time.Now()
		nw.Forward(cnn.ImplIm2col, ds.Images)
		return time.Since(t0)
	}
	spread := func(samples []float64) float64 {
		lo, hi := math.MaxFloat64, 0.0
		for _, s := range samples {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		return hi / lo
	}
	b.ResetTimer()
	var singleSpread, minSpread float64
	for i := 0; i < b.N; i++ {
		var singles, mins []float64
		for trial := 0; trial < 6; trial++ {
			singles = append(singles, timeOnce().Seconds())
			res, err := grading.RerunMin("t", 5, func(string) (time.Duration, float64, error) {
				return timeOnce(), 1, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			mins = append(mins, res.Best.Seconds())
		}
		singleSpread = spread(singles)
		minSpread = spread(mins)
	}
	b.ReportMetric(singleSpread, "spread-single-run")
	b.ReportMetric(minSpread, "spread-min-of-5")
}

// BenchmarkEphemeralTopicChurn exercises the broker's log-topic
// lifecycle: create, publish, drain, and garbage-collect (the
// log_${job_id} pattern at job rates).
func BenchmarkEphemeralTopicChurn(b *testing.B) {
	q := broker.New()
	defer q.Close()
	for i := 0; i < b.N; i++ {
		topic := core.LogTopic(fmt.Sprintf("job%d", i))
		sub, err := q.Subscribe(bg, topic, core.LogChannel, 16)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			q.Publish(bg, topic, []byte("line of build output"))
		}
		for k := 0; k < 10; k++ {
			m := <-sub.C()
			sub.Ack(bg, m)
		}
		sub.Close()
		if q.HasTopic(topic) {
			b.Fatal("topic leaked")
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkBrokerThroughput measures publish->deliver->ack round trips.
func BenchmarkBrokerThroughput(b *testing.B) {
	q := broker.New()
	defer q.Close()
	sub, err := q.Subscribe(bg, "rai", "tasks", 64)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("j"), 512)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Publish(bg, "rai", payload); err != nil {
			b.Fatal(err)
		}
		m := <-sub.C()
		sub.Ack(bg, m)
	}
}

// BenchmarkBrokerFanout measures a 1->8 channel broadcast.
func BenchmarkBrokerFanout(b *testing.B) {
	q := broker.New()
	defer q.Close()
	var subs []broker.Consumer
	for i := 0; i < 8; i++ {
		sub, err := q.Subscribe(bg, "events", fmt.Sprintf("ch%d", i), 64)
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Publish(bg, "events", []byte("evt"))
		for _, sub := range subs {
			m := <-sub.C()
			sub.Ack(bg, m)
		}
	}
}

// BenchmarkBrokerParallelMultiTopic is the contended fast-path
// benchmark: every worker owns its own topic (the log_${job_id} shape)
// and runs publish->deliver->ack loops concurrently. With a single
// broker-wide mutex all workers serialize; with per-topic locking they
// proceed independently.
func BenchmarkBrokerParallelMultiTopic(b *testing.B) {
	q := broker.New()
	defer q.Close()
	var nextTopic atomic.Int64
	payload := bytes.Repeat([]byte("j"), 512)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		topic := fmt.Sprintf("bench.shard%d", nextTopic.Add(1))
		sub, err := q.Subscribe(bg, topic, "tasks", 64)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := q.Publish(bg, topic, payload); err != nil {
				b.Error(err)
				return
			}
			m := <-sub.C()
			sub.Ack(bg, m)
		}
	})
}

// BenchmarkWireCodec measures one brokerd delivery frame through
// encode+decode.
func BenchmarkWireCodec(b *testing.B) {
	frame := &brokerd.Frame{
		Op: brokerd.OpMsg, Seq: 12345, MsgID: 67890, Attempts: 1,
		Topic: "log_job42#x", Time: time.Unix(1479600000, 0).UTC(),
		Body: bytes.Repeat([]byte("j"), 512),
	}
	var buf bytes.Buffer
	b.SetBytes(int64(len(frame.Body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := brokerd.EncodeFrame(&buf, frame); err != nil {
			b.Fatal(err)
		}
		if _, err := brokerd.DecodeFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjstorePutGet measures file-server round trips at archive
// sizes.
func BenchmarkObjstorePutGet(b *testing.B) {
	s := objstore.New()
	payload := bytes.Repeat([]byte("x"), 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(context.Background(), "uploads", "team/proj.tar.bz2", payload, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(context.Background(), "uploads", "team/proj.tar.bz2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchProject measures worker step 4 ("download the project
// into /src") on the macro-benchmark's large tree — 8 × 256 KiB of
// seeded-random bytes, ~235 chunks — against a raifs on loopback: the
// manifest GET, its decode, and the materialization of every chunk, as
// Worker.fetchProject does them. Client and server share the process,
// so B/op and allocs/op are the sum of both ends.
func BenchmarkFetchProject(b *testing.B) {
	srv := httptest.NewServer(objstore.Handler(objstore.New(), nil))
	defer srv.Close()
	c := objstore.NewClient(srv.URL)
	tree := vfs.New()
	rng := rand.New(rand.NewSource(408))
	for i := 0; i < 8; i++ {
		blob := make([]byte, 256<<10)
		rng.Read(blob)
		if err := tree.WriteFile(fmt.Sprintf("/p/blob%d.bin", i), blob); err != nil {
			b.Fatal(err)
		}
	}
	m, src, err := cas.BuildVFS(tree, "/p")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.PutChunks(bg, m.ChunkSet(), src); err != nil {
		b.Fatal(err)
	}
	const key = "bench/j1/project.manifest"
	if err := c.Put(bg, core.BucketUploads, key, m.Encode(), 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(m.TotalBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _, err := c.GetReader(bg, core.BucketUploads, key)
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(io.LimitReader(rc, cas.MaxManifestBytes+1))
		rc.Close()
		if err != nil {
			b.Fatal(err)
		}
		got, err := cas.Decode(body)
		if err != nil {
			b.Fatal(err)
		}
		chunks, _, err := cas.Materialize(bg, got, c, vfs.New(), "/src")
		if err != nil || chunks != len(m.ChunkSet()) {
			b.Fatalf("materialized %d of %d chunks: %v", chunks, len(m.ChunkSet()), err)
		}
	}
}

// BenchmarkDocstoreQuery measures a filtered, sorted ranking query over
// a class-sized collection.
func BenchmarkDocstoreQuery(b *testing.B) {
	db := docstore.New()
	for i := 0; i < 1000; i++ {
		db.Insert(context.Background(), "jobs", docstore.M{
			"user": fmt.Sprintf("team%02d", i%58), "status": "succeeded",
			"elapsed_s": float64(i%300) / 10, "kind": "run",
		})
	}
	filter := docstore.M{"user": "team07", "elapsed_s": docstore.M{"$lt": 20.0}}
	opts := docstore.FindOpts{Sort: []string{"-elapsed_s"}, Limit: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Find(context.Background(), "jobs", filter, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYamliteParse parses the Listing 1 build file.
func BenchmarkYamliteParse(b *testing.B) {
	blob, err := build.Default().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yamlite.Parse(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBzip2Compress measures the from-scratch compressor on
// source-like data.
func BenchmarkBzip2Compress(b *testing.B) {
	payload := bytes.Repeat([]byte("for (int i = 0; i < N; ++i) { y[i] += w[i] * x[i]; }\n"), 2000)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bzip2w.Compress(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTarBz2RoundTrip packs and unpacks a student project.
func BenchmarkTarBz2RoundTrip(b *testing.B) {
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", project.Spec{Impl: cnn.ImplIm2col, Team: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := archivex.PackVFS(fs, "/p")
		if err != nil {
			b.Fatal(err)
		}
		out := vfs.New()
		if err := archivex.UnpackVFS(blob, out, "/d", archivex.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCNNForward measures the real workload kernels; the ratios
// across sub-benchmarks are the student optimization journey.
func BenchmarkCNNForward(b *testing.B) {
	nw := cnn.NewNetwork(408)
	ds, err := cnn.SynthesizeDataset(nw, 11, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, im := range cnn.Impls {
		b.Run(im.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nw.Forward(im, ds.Images); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSandboxStartup measures container creation with mounts.
func BenchmarkSandboxStartup(b *testing.B) {
	src := vfs.New()
	if err := project.WriteTo(src, "/src", project.Spec{Impl: cnn.ImplTiled}); err != nil {
		b.Fatal(err)
	}
	rt := sandbox.NewRuntime(registry.NewCourseRegistry())
	cfg := sandbox.Config{
		Image:  "webgpu/rai:root",
		Mounts: []sandbox.Mount{{Source: src, SourcePath: "/src", Target: "/src", ReadOnly: true}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr, err := rt.Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctr.Destroy()
	}
}

// BenchmarkWorkloadGeneration measures the deterministic course
// generator (58 teams, ~41k submissions).
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := workload.Fall2016()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := workload.Generate(cfg)
		if len(c.Teams) != 58 {
			b.Fatal("teams")
		}
	}
}
