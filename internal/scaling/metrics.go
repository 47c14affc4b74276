package scaling

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

// MetricsSource derives the autoscaler's PolicyInput from the shared
// telemetry registry instead of bespoke counters threaded through the
// call graph:
//
//   - QueueDepth comes from rai_broker_queue_depth{topic,channel}; the
//     broker must export it (Broker.ExportQueueDepth), otherwise every
//     sample fails and the autoscaler treats the round as a blip.
//   - RecentArrivalsPerHour is the rate of
//     rai_broker_publish_total{topic} between consecutive samples.
//   - AvgServiceSeconds is the mean of the rai_worker_job_seconds
//     histogram over the same window, falling back to the lifetime mean
//     when no job finished since the previous sample.
//
// Active and Now are stamped by Autoscaler.Step, so the source leaves
// them zero. The returned func keeps the previous sample as closure
// state and is safe for concurrent use.
func MetricsSource(reg *telemetry.Registry, topic, channel string, clk clock.Clock) func() (PolicyInput, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	var mu sync.Mutex
	var lastAt time.Time
	var lastPub, lastSum float64
	var lastCount uint64
	return func() (PolicyInput, error) {
		if reg == nil {
			return PolicyInput{}, errors.New("scaling: MetricsSource needs a telemetry registry")
		}
		depth, ok := reg.Value("rai_broker_queue_depth",
			telemetry.L("topic", topic), telemetry.L("channel", channel))
		if !ok {
			return PolicyInput{}, fmt.Errorf(
				"scaling: rai_broker_queue_depth{topic=%q,channel=%q} not exported (call Broker.ExportQueueDepth)",
				topic, channel)
		}
		in := PolicyInput{QueueDepth: int(depth)}

		pub, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", topic))
		count, sum := reg.Histogram("rai_worker_job_seconds",
			"wall time per completed job").Totals()

		mu.Lock()
		defer mu.Unlock()
		now := clk.Now()
		if !lastAt.IsZero() {
			if dt := now.Sub(lastAt).Hours(); dt > 0 && pub >= lastPub {
				in.RecentArrivalsPerHour = (pub - lastPub) / dt
			}
			if dc := count - lastCount; count >= lastCount && dc > 0 {
				in.AvgServiceSeconds = (sum - lastSum) / float64(dc)
			}
		}
		if in.AvgServiceSeconds == 0 && count > 0 {
			in.AvgServiceSeconds = sum / float64(count)
		}
		lastAt, lastPub, lastCount, lastSum = now, pub, count, sum
		return in, nil
	}
}
