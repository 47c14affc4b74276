package sim

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/scaling"
)

// TestAutoscalerDrivesRealWorkers closes the elasticity loop end to end:
// queue depth on rai/tasks feeds the policy, the actuator spawns real
// workers, and a submission burst drains with more capacity than the
// initial fleet — the live version of the paper's §VII provisioning.
func TestAutoscalerDrivesRealWorkers(t *testing.T) {
	d, err := NewDeployment(DeployConfig{Workers: 1, RateLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// No worker runs yet: the burst queues up, and capacity exists only
	// once the autoscaler provisions it.

	var mu sync.Mutex
	var extra []*core.Worker
	spawn := func(n int) error {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			w := &core.Worker{
				Cfg:      core.WorkerConfig{ID: fmt.Sprintf("auto-%d", len(extra)), MaxConcurrent: 1, RateLimit: time.Nanosecond},
				Queue:    d.Queue,
				Objects:  d.Objects,
				DB:       d.DB,
				Auth:     d.Auth,
				Images:   d.Images,
				DataFS:   d.DataFS,
				DataPath: "/data",
				Clock:    d.Clock,
			}
			extra = append(extra, w)
			go w.Run(context.Background())
		}
		return nil
	}
	stopOne := func(n int) error {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n && len(extra) > 0; i++ {
			w := extra[len(extra)-1]
			extra = extra[:len(extra)-1]
			go w.Stop()
		}
		return nil
	}
	as := &scaling.Autoscaler{
		Policy: scaling.ElasticPolicy{Min: 1, Max: 6, SlotsPerInstance: 1},
		Source: func() (scaling.PolicyInput, error) {
			return scaling.PolicyInput{
				QueueDepth: d.Broker.Depth(core.TasksTopic, core.TasksChannel),
			}, nil
		},
		ScaleUp:   spawn,
		ScaleDown: stopOne,
		Cooldown:  time.Hour,
	}
	as.SetCurrent(0)

	// Burst: 8 teams submit at once against a single worker.
	const burst = 8
	results := make(chan error, burst)
	for i := 0; i < burst; i++ {
		team := fmt.Sprintf("burst-%d", i)
		c, err := d.NewClient(team, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		c.LogWait = 0 // real-time wait via broker delivery, no clock timer
		go func(c *core.Client, team string) {
			m, src, err := ProjectManifest(project.Spec{Impl: cnn.ImplTiled, Team: team})
			if err != nil {
				results <- err
				return
			}
			res, err := c.Submit(context.Background(), core.KindRun, nil, m, src)
			if err == nil && res.Status != core.StatusSucceeded {
				err = fmt.Errorf("status %s", res.Status)
			}
			results <- err
		}(c, team)
	}

	// Wait for the whole burst to queue (no capacity exists yet), then
	// let the autoscaler react to the standing backlog.
	deadline := time.Now().Add(10 * time.Second)
	for d.Broker.Depth(core.TasksTopic, core.TasksChannel) < burst && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if depth := d.Broker.Depth(core.TasksTopic, core.TasksChannel); depth < burst {
		t.Fatalf("burst never queued: depth = %d", depth)
	}
	delta, err := as.Step()
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Fatalf("autoscaler did not scale up under a burst (delta=%d)", delta)
	}
	if as.Current() < 2 {
		t.Fatalf("fleet = %d after burst", as.Current())
	}

	for i := 0; i < burst; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("burst stalled at job %d (fleet %d)", i, as.Current())
		}
	}
	mu.Lock()
	for _, w := range extra {
		w.Stop()
	}
	mu.Unlock()
	d.workers[0].Stop()
}
