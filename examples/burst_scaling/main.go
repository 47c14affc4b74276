// Burst scaling: the §III/§VII provisioning story quantified. Replays
// the fall 2016 deadline burst (the paper's Figure 4 trace: ~30k
// submissions in the final two weeks) against a fixed local cluster, a
// generously over-provisioned fixed fleet, and RAI's elastic policy —
// then reprints the per-phase resource usage of §VII.
//
//	go run ./examples/burst_scaling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/scaling"
	"rai/internal/sim"
	"rai/internal/telemetry"
	"rai/internal/workload"
)

func main() {
	fmt.Println("generating the fall 2016 course (seeded, deterministic)...")
	course := workload.Generate(workload.Fall2016())
	fmt.Printf("teams: %d, submissions: %d (%d in the final two weeks)\n\n",
		len(course.Teams), len(course.Submissions), len(course.LastTwoWeeks()))

	// Figure 4: the submission timeline being replayed.
	fig4 := sim.Figure4(course)
	fmt.Print(fig4.Text)

	// The deadline-burst comparison (final two weeks, single-job workers).
	from := course.Cfg.Deadline.Add(-14 * 24 * time.Hour)
	to := course.Cfg.Deadline.Add(time.Hour)
	fmt.Println("\n== queue delay and cost under the burst ==")
	_, table, err := sim.ComparePolicies(course, from, to, []scaling.Policy{
		scaling.FixedPolicy{N: 4},  // an oversubscribed local cluster (§III)
		scaling.FixedPolicy{N: 10}, // mid-course RAI capacity
		scaling.FixedPolicy{N: 30}, // always-on peak capacity
		scaling.ElasticPolicy{Min: 4, Max: 30, SlotsPerInstance: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)

	// §VII: the three provisioning eras of the real deployment.
	fmt.Println("\n== resource usage phases (G2 -> P2, multi-job -> single-job) ==")
	_, phases, err := sim.ResourceUsagePhases(course)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(phases)

	// The same elastic loop, closed over live telemetry: the autoscaler
	// reads queue depth and service time straight from the shared
	// registry (rai_broker_queue_depth, rai_broker_publish_total,
	// rai_worker_job_seconds) instead of bespoke bookkeeping.
	fmt.Println("\n== live autoscaler on broker telemetry ==")
	liveAutoscaler(course.Cfg.Deadline.Add(-24 * time.Hour))
}

// liveAutoscaler runs a deterministic minute-by-minute burst against a
// real broker and prints the decisions the telemetry-fed autoscaler
// takes. Each worker drains one job per minute (60s service time).
func liveAutoscaler(start time.Time) {
	vc := clock.NewVirtual(start)
	reg := telemetry.NewRegistry()
	b := broker.New(broker.WithClock(vc), broker.WithTelemetry(reg))
	defer b.Close()
	b.ExportQueueDepth(core.TasksTopic, core.TasksChannel)
	ctx := context.Background()
	sub, err := b.Subscribe(ctx, core.TasksTopic, core.TasksChannel, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	fleet := 0
	scaler := &scaling.Autoscaler{
		Policy:    scaling.ElasticPolicy{Min: 2, Max: 30, SlotsPerInstance: 1},
		Source:    scaling.MetricsSource(reg, core.TasksTopic, core.TasksChannel, vc),
		Clock:     vc,
		Cooldown:  3 * time.Minute,
		Telemetry: reg,
		ScaleUp:   func(n int) error { fleet += n; return nil },
		ScaleDown: func(n int) error { fleet -= n; return nil },
	}

	jobSecs := reg.Histogram("rai_worker_job_seconds",
		"wall time per completed job")
	fmt.Println("minute  arrivals  queue  workers  desired  decision")
	for minute, arrivals := range []int{2, 10, 40, 40, 20, 5, 0, 0, 0, 0} {
		for i := 0; i < arrivals; i++ {
			if _, err := b.Publish(ctx, core.TasksTopic, []byte("job")); err != nil {
				log.Fatal(err)
			}
		}
		// The fleet drains up to one job per worker this minute.
		for drained := 0; drained < fleet; drained++ {
			select {
			case m := <-sub.C():
				_ = sub.Ack(ctx, m)
				jobSecs.Observe(60)
			default:
				drained = fleet
			}
		}
		delta, err := scaler.Step()
		if err != nil {
			log.Fatal(err)
		}
		decision := "hold"
		if delta > 0 {
			decision = fmt.Sprintf("+%d workers", delta)
		} else if delta < 0 {
			decision = fmt.Sprintf("%d workers", delta)
		}
		depth, _ := reg.Value("rai_broker_queue_depth",
			telemetry.L("topic", core.TasksTopic), telemetry.L("channel", core.TasksChannel))
		desired, _ := reg.Value("rai_autoscaler_desired_workers")
		fmt.Printf("%6d  %8d  %5.0f  %7d  %7.0f  %s\n",
			minute, arrivals, depth, scaler.Current(), desired, decision)
		vc.Advance(time.Minute)
	}
	up, _ := reg.Value("rai_autoscaler_scale_events_total", telemetry.L("direction", "up"))
	down, _ := reg.Value("rai_autoscaler_scale_events_total", telemetry.L("direction", "down"))
	fmt.Printf("scale events: %.0f up, %.0f down over %d decisions\n", up, down, scaler.Decisions())
}
