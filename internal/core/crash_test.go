package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cnn"
	"rai/internal/docstore"
	"rai/internal/project"
)

// A worker killed with -9 looks the same to the broker at any point: a
// consumer that took a job and went away without acknowledging it. The
// tests here kill one at each boundary between the named stages of a
// job and let a healthy worker take the redelivery; the course must
// still end with the job in exactly one terminal state.

// noAck is the subscription of a worker that dies before it can
// acknowledge anything.
type noAck struct{ broker.Consumer }

func (noAck) Ack(context.Context, *broker.Message) error { return nil }

// crashRig is one submission in flight: the client waiting on it, the
// doomed worker's subscription holding its message, and an extra channel
// on the job's log topic counting the End messages anyone publishes.
type crashRig struct {
	e      *env
	done   chan *JobResult
	doomed broker.Consumer
	m      *broker.Message
	req    JobRequest
	audit  broker.Consumer
}

func newCrashRig(t *testing.T, kind string) *crashRig {
	t.Helper()
	r := &crashRig{e: newEnv(t), done: make(chan *JobResult, 1)}
	r.e.worker.Cfg.RateLimit = 30 * time.Second
	c := r.e.client(t, "team-crash")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-crash", WithUsage: true, WithReport: true})
	spec := build.Default()
	if kind == KindSubmit {
		spec = nil
	}
	go func() {
		res, err := c.Submit(context.Background(), kind, spec, proj.m, proj.src)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		r.done <- res
	}()
	var err error
	if r.doomed, err = r.e.queue.Subscribe(context.Background(), TasksTopic, TasksChannel, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case r.m = <-r.doomed.C():
	case <-time.After(5 * time.Second):
		t.Fatal("the doomed worker never got the job")
	}
	if err := json.Unmarshal(r.m.Body, &r.req); err != nil {
		t.Fatal(err)
	}
	if r.audit, err = r.e.queue.Subscribe(context.Background(), LogTopic(r.req.ID), "audit", 1024); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.audit.Close() })
	return r
}

// doomedWorker shares the deployment with the healthy worker.
func (r *crashRig) doomedWorker() *Worker {
	w := &Worker{
		Cfg:   WorkerConfig{ID: "doomed", MaxConcurrent: 1, RateLimit: 30 * time.Second},
		Queue: r.e.queue, Objects: r.e.objects, DB: r.e.db, Auth: r.e.authReg,
		Images: r.e.images, DataFS: r.e.dataFS, DataPath: "/data", Clock: r.e.clock,
	}
	w.initRuntime()
	return w
}

// redeliver closes the doomed subscription (the broker requeues the job),
// lets the healthy worker handle the redelivery, and returns the one
// result the client got.
func (r *crashRig) redeliver(t *testing.T) *JobResult {
	t.Helper()
	r.doomed.Close()
	if handled, err := r.e.worker.HandleOne(context.Background(), 5*time.Second); err != nil || !handled {
		t.Fatalf("healthy worker: handled=%v err=%v", handled, err)
	}
	select {
	case res := <-r.done:
		if res == nil {
			t.FailNow()
		}
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("the client never got an End message")
		return nil
	}
}

// ends counts the End messages published on the job's log topic.
func (r *crashRig) ends(t *testing.T) int {
	t.Helper()
	n := 0
	for {
		select {
		case m := <-r.audit.C():
			_ = r.audit.Ack(context.Background(), m)
			var lm LogMessage
			if json.Unmarshal(m.Body, &lm) == nil && lm.Kind == LogEnd {
				n++
			}
		case <-time.After(200 * time.Millisecond):
			return n
		}
	}
}

// settledOnce asserts the books: one job record, terminal, written by
// worker ranBy; for a final submission a ranking for this job carrying
// the time the client was told; one End on the log topic.
func (r *crashRig) settledOnce(t *testing.T, res *JobResult, ranBy string) {
	t.Helper()
	ctx := context.Background()
	if res.Status != StatusSucceeded {
		t.Errorf("client result status = %q", res.Status)
	}
	docs, err := r.e.db.Find(ctx, CollJobs, docstore.M{"job_id": r.req.ID}, docstore.FindOpts{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("%d job records for the job (%v), want 1", len(docs), err)
	}
	if docs[0]["status"] != StatusSucceeded || docs[0]["worker"] != ranBy {
		t.Errorf("job record status %v by %v, want %s by %s", docs[0]["status"], docs[0]["worker"], StatusSucceeded, ranBy)
	}
	if r.req.Kind == KindSubmit {
		rank, err := r.e.db.FindOne(ctx, CollRankings, docstore.M{"team": r.req.User})
		if err != nil {
			t.Fatalf("no ranking after the final submission: %v", err)
		}
		if rank["job_id"] != r.req.ID || math.Abs(rank["runtime_s"].(float64)-res.InternalTimer.Seconds()) > 1e-9 {
			t.Errorf("ranking %v does not carry job %s's %v", rank, r.req.ID, res.InternalTimer)
		}
	}
	if n := r.ends(t); n != 1 {
		t.Errorf("%d End messages published for the job, want 1", n)
	}
}

// TestFinishedJobIsNotRerun: the worker published End and died before
// acknowledging. The redelivery finds the job's terminal record and is
// only acknowledged: the job is not run a second time, its record is
// not reopened, and no second End goes out.
func TestFinishedJobIsNotRerun(t *testing.T) {
	r := newCrashRig(t, KindSubmit)
	r.doomedWorker().process(context.Background(), noAck{r.doomed}, r.m)
	r.settledOnce(t, r.redeliver(t), "doomed")
}

// TestCrashMatrix runs a job's real stages up to each boundary on a
// doomed worker — after admit, download, start, the last command,
// store-build and finish — then drops it unacknowledged.
func TestCrashMatrix(t *testing.T) {
	for _, kind := range []string{KindRun, KindSubmit} {
		for _, after := range []string{"admit", "download", "start", "last command", "store-build", "finish"} {
			t.Run(kind+" after "+after, func(t *testing.T) {
				r := newCrashRig(t, kind)
				w := r.doomedWorker()
				ctx, j := w.dequeue(context.Background(), r.m)
				if !w.run(ctx, j, stage{name: "admit", run: w.admit}) {
					t.Fatal("admit refused the job")
				}
				plan := w.stages(j)
				n := 0
				for i, st := range plan {
					if st.name == after || (after == "last command" && i+1 < len(plan) && plan[i+1].name == "store-build") {
						n = i + 1
					}
				}
				if after != "admit" && n == 0 {
					t.Fatalf("no %s stage in %v", after, plan)
				}
				w.run(ctx, j, plan[:n]...)
				ranBy := "w1"
				if after == "finish" {
					ranBy = "doomed"
				}
				r.settledOnce(t, r.redeliver(t), ranBy)
			})
		}
	}
}
