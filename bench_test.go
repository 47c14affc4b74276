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
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/blobstore"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/build"
	"rai/internal/bzip2w"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/collector"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/grading"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/release"
	"rai/internal/sandbox"
	"rai/internal/scaling"
	"rai/internal/shell"
	"rai/internal/sim"
	"rai/internal/telemetry"
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
	blob := build.Default().Encode()
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
		if len(q.Stats()) != 0 {
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
// manifest GET, its decode, and the materialization, as the worker's
// download stage does them. cold starts each fetch from an empty chunk
// cache; warm from one holding the student's previous tree, of which one
// file of the eight has since been rewritten; identical from one holding
// the very tree. Client and server share the process, so B/op and
// allocs/op are the sum of both ends.
func BenchmarkFetchProject(b *testing.B) {
	store := objstore.New()
	srv := httptest.NewServer(objstore.Handler(store, nil))
	defer srv.Close()
	c := objstore.NewClient(srv.URL)
	tree := vfs.New()
	rng := rand.New(rand.NewSource(408))
	rewrite := func(i int) {
		blob := make([]byte, 256<<10)
		rng.Read(blob)
		if err := tree.WriteFile(fmt.Sprintf("/p/blob%d.bin", i), blob); err != nil {
			b.Fatal(err)
		}
	}
	upload := func(key string) *cas.Manifest {
		m, src, err := cas.Build(tree.IOFS("/p"), nil)
		if err != nil {
			b.Fatal(err)
		}
		if missing, err := c.PutManifest(bg, core.BucketUploads, key, m.Encode(), 0, m.ChunkSet(), src); err != nil || len(missing) != 0 {
			b.Fatalf("upload left %v missing: %v", missing, err)
		}
		return m
	}
	for i := 0; i < 8; i++ {
		rewrite(i)
	}
	const prevKey, nextKey = "bench/j1/project.manifest", "bench/j2/project.manifest"
	prev := upload(prevKey)
	rewrite(3)
	next := upload(nextKey)
	prevChunks, nextChunks := len(prev.ChunkSet()), len(next.ChunkSet())

	fetch := func(b *testing.B, key string, cache *cas.Cache) cas.Stats {
		rc, _, err := c.GetReader(bg, core.BucketUploads, key)
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(io.LimitReader(rc, cas.MaxManifestBytes+1))
		rc.Close()
		if err != nil {
			b.Fatal(err)
		}
		m, err := cas.Decode(body)
		if err != nil {
			b.Fatal(err)
		}
		st, err := cas.Materialize(bg, m, c, cache, vfs.New(), "/src")
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(prev.TotalBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st := fetch(b, prevKey, cas.NewCache(cas.CacheBytes)); st.Fetched != prevChunks {
				b.Fatalf("fetched %d of %d chunks", st.Fetched, prevChunks)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.SetBytes(next.TotalBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := cas.NewCache(cas.CacheBytes)
			if _, err := cas.Materialize(bg, prev, store, cache, vfs.New(), "/src"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if st := fetch(b, nextKey, cache); st.Fetched == 0 || st.Fetched*4 > nextChunks {
				b.Fatalf("fetched %d of %d chunks for a one-file edit", st.Fetched, nextChunks)
			}
		}
	})
	b.Run("identical", func(b *testing.B) {
		cache := cas.NewCache(cas.CacheBytes)
		fetch(b, prevKey, cache)
		b.SetBytes(prev.TotalBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := fetch(b, prevKey, cache); st.Fetched != 0 {
				b.Fatalf("fetched %d chunks of a cached tree", st.Fetched)
			}
		}
	})
}

// BenchmarkBuildDir measures client step 3's scan (cas.Build over
// os.DirFS) of the same large tree, 8 × 256 KiB of seeded-random bytes,
// on disk and through the project's stat index. cold has no index file,
// so every file is read and the index written; one-of-eight follows a
// rewrite of one file; identical scans an unchanged tree. Before each
// timed scan the filesystem clock is let move past the last write, so no
// file is racy and only the rewritten one is read.
func BenchmarkBuildDir(b *testing.B) {
	b.Setenv("XDG_CACHE_HOME", b.TempDir())
	root, scratch := b.TempDir(), b.TempDir()
	rng := rand.New(rand.NewSource(408))
	blob := make([]byte, 256<<10)
	rewrite := func(i int) {
		rng.Read(blob)
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("blob%d.bin", i)), blob, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	// settle waits for a file created now to carry a later mtime than one
	// created first: then every earlier write is older than the next
	// scan's stamp.
	settle := func() {
		stamp := func() time.Time {
			p := filepath.Join(scratch, "tick")
			if err := os.WriteFile(p, nil, 0o600); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := os.Remove(p); err != nil {
				b.Fatal(err)
			}
			return fi.ModTime()
		}
		for first := stamp(); !stamp().After(first); {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 8; i++ {
		rewrite(i)
	}
	idx := cas.ProjectIndex(root)
	scan := func(b *testing.B) {
		m, _, err := cas.Build(os.DirFS(root), idx)
		if err != nil {
			b.Fatal(err)
		}
		if m.TotalBytes != 8*int64(len(blob)) {
			b.Fatalf("scanned %d bytes", m.TotalBytes)
		}
	}
	// Two scans, each after the clock moved on, leave every file trusted.
	for i := 0; i < 2; i++ {
		settle()
		scan(b)
	}
	indexFile, err := filepath.Glob(filepath.Join(os.Getenv("XDG_CACHE_HOME"), "rai", "index", "*"))
	if err != nil || len(indexFile) != 1 {
		b.Fatalf("index files %v, %v", indexFile, err)
	}
	cases := []struct {
		name   string
		before func(i int)
	}{
		{"cold", func(int) {
			if err := os.Remove(indexFile[0]); err != nil {
				b.Fatal(err)
			}
		}},
		{"one-of-eight", func(i int) { rewrite(i % 8) }},
		{"identical", func(int) {}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(8 * int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.before(i)
				settle()
				b.StartTimer()
				scan(b)
			}
		})
	}
}

// BenchmarkUploadProject measures client step 3 on the macro-benchmark's
// fresh_large tree, 8 × 256 KiB of seeded-random bytes on disk, every
// byte new to the file server: the scan (cas.Build, no index) and the
// one request that carries every chunk and then the manifest, which
// raifs commits, against a raifs on loopback that starts each upload
// empty. That is rai's upload when its stat index names none of the
// chunks it read, as after fresh_large's rewrite of every file. Client
// and server share the process, so B/op and allocs/op are the sum of
// both ends, the chunks raifs keeps included.
func BenchmarkUploadProject(b *testing.B) {
	root := b.TempDir()
	rng := rand.New(rand.NewSource(408))
	blob := make([]byte, 256<<10)
	for i := 0; i < 8; i++ {
		rng.Read(blob)
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("blob%d.bin", i)), blob, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	var handler atomic.Value // the http.Handler of the current upload's store
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := objstore.NewClient(srv.URL)
	b.SetBytes(8 * int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		handler.Store(objstore.Handler(objstore.New(), nil))
		b.StartTimer()
		m, src, err := cas.Build(os.DirFS(root), nil)
		if err != nil {
			b.Fatal(err)
		}
		missing, err := c.PutManifest(bg, core.BucketUploads, "bench/j1/project.manifest", m.Encode(), 0, m.ChunkSet(), src)
		if err != nil || len(missing) != 0 {
			b.Fatalf("upload left %d chunks missing: %v", len(missing), err)
		}
	}
}

// BenchmarkDocstoreQuery measures two queries the system runs: a
// filtered, sorted ranking query over a class-sized collection, and the
// worker's rate-limit lookup (the user's newest accepted job other than
// this one) over 5,000 job records.
func BenchmarkDocstoreQuery(b *testing.B) {
	b.Run("ranking", func(b *testing.B) {
		db := docstore.New()
		for i := 0; i < 1000; i++ {
			db.Insert(bg, "jobs", docstore.M{
				"user": fmt.Sprintf("team%02d", i%58), "status": "succeeded",
				"elapsed_s": float64(i%300) / 10, "kind": "run",
			})
		}
		filter := docstore.M{"user": "team07", "elapsed_s": docstore.M{"$lt": 20.0}}
		opts := docstore.FindOpts{Sort: []string{"-elapsed_s"}, Limit: 10}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Find(bg, "jobs", filter, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rate-limit", func(b *testing.B) {
		db := docstore.New()
		t0 := time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)
		for i := 0; i < 5000; i++ {
			db.Insert(bg, core.CollJobs, docstore.M{
				"job_id": fmt.Sprintf("job-%05d", i), "user": fmt.Sprintf("team%02d", i%58),
				"status": core.StatusSucceeded, "kind": "run",
				"created_at": t0.Add(time.Duration(i) * time.Second).Format(time.RFC3339Nano),
			})
		}
		// The filter and options of Worker.rateLimitOK.
		filter := docstore.M{
			"user":   "team07",
			"status": docstore.M{"$ne": core.StatusRejected},
			"job_id": docstore.M{"$ne": "job-99999"},
		}
		opts := docstore.FindOpts{Sort: []string{"-created_at"}, Limit: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if docs, err := db.Find(bg, core.CollJobs, filter, opts); err != nil || len(docs) != 1 {
				b.Fatal(docs, err)
			}
		}
	})
}

// BenchmarkCollectorPersist measures the collector persisting one
// 64-record batch — 48 spans of a fresh trace and 16 events — over HTTP
// into a raidb whose traces collection already holds 5,000 spans, the
// way every batch an exporter ships is written. Client and server share
// the process, so B/op and allocs/op are the sum of both ends. memory is
// raidb without -store-root; journaled adds the journal on a disk store
// in a temp directory, as raidb -store-root runs.
func BenchmarkCollectorPersist(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchCollectorPersist(b, docstore.New()) })
	b.Run("journaled", func(b *testing.B) {
		be, err := blobstore.NewDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer be.Close()
		db, err := docstore.Open(bg, be, "journal", "rai.journal")
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		benchCollectorPersist(b, db)
	})
}

func benchCollectorPersist(b *testing.B, db *docstore.DB) {
	srv := httptest.NewServer(docstore.Handler(db))
	defer srv.Close()
	t0 := time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)
	batch := func(trace int) *collector.Batch {
		bt := &collector.Batch{Service: "raiworker"}
		id := fmt.Sprintf("rai-%08d", trace)
		job := map[string]string{"job_id": "job-" + id}
		for i := 0; i < 48; i++ {
			start := t0.Add(time.Duration(trace)*time.Second + time.Duration(i)*time.Millisecond)
			bt.Spans = append(bt.Spans, telemetry.SpanData{
				TraceID: id, SpanID: fmt.Sprintf("s%02d", i), ParentID: "s00", Name: "objstore get",
				Start: start, End: start.Add(time.Millisecond), Attrs: job,
			})
		}
		for i := 0; i < 16; i++ {
			bt.Events = append(bt.Events, telemetry.Event{
				Time:  t0.Add(time.Duration(trace)*time.Second + time.Duration(i)*time.Millisecond),
				Level: "info", Msg: "job dequeued", TraceID: id, SpanID: "s00", JobID: "job-" + id,
			})
		}
		return bt
	}
	seed := &collector.Collector{DB: db}
	for trace := 0; trace < 5000/48+1; trace++ {
		seed.Persist(bg, batch(trace))
	}
	c := &collector.Collector{DB: docstore.NewClient(srv.URL)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Persist(bg, batch(1<<20+i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/record")
}

// BenchmarkYamliteParse parses the Listing 1 build file.
func BenchmarkYamliteParse(b *testing.B) {
	blob := build.Default().Encode()
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

// BenchmarkECE408Run measures the worker's graded build step: the real
// `./ece408 /data/test10.hdf5 /data/model.hdf5`, run through shell in a
// container laid out as the worker lays one out, with the course volume
// (cnn.DataVolume) mounted read-only at /data. warm is the steady state,
// in which the process has decoded both files before; cold rewrites both
// before each run, untimed, so that every run reads and decodes them, as
// the first job after a worker starts does.
func BenchmarkECE408Run(b *testing.B) {
	const cmd = "./ece408 /data/test10.hdf5 /data/model.hdf5"
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range []string{"/data/test10.hdf5", "/data/model.hdf5"} {
		if files[p], err = data.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
	ctr := vfs.New()
	if err := project.WriteTo(ctr, "/src", project.Spec{Impl: cnn.ImplIm2col}); err != nil {
		b.Fatal(err)
	}
	if err := ctr.MkdirAll("/build"); err != nil {
		b.Fatal(err)
	}
	if err := ctr.Mount("/data", data, "/data", true); err != nil {
		b.Fatal(err)
	}
	sh := shell.New(ctr, "/build", io.Discard, io.Discard, nil)
	for _, c := range []string{"cmake /src", "make"} {
		if _, err := sh.Run(c); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B) {
		if res, err := sh.Run(cmd); err != nil || res.Accuracy != 1 {
			b.Fatalf("%s: %+v %v", cmd, res, err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for p, blob := range files {
				if err := data.WriteFile(p, blob); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			run(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		run(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
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
