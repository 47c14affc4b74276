// Package scaling models the worker-fleet provisioning story of the
// paper's §VII "Resource Usage": cheaper G2 (K40) instances early in the
// project, a transition to P2 (K80) instances as students move to GPU
// kernels, growth to 10 multi-job instances for interactive response,
// and finally 20–30 single-job instances during the benchmarking weeks.
// It provides the instance catalog, a fleet with per-slot scheduling and
// billing, and fixed/elastic provisioning policies, so the reproduction
// can measure queue delay and dollar cost under the deadline burst.
package scaling

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// InstanceType is an AWS-like worker machine class.
type InstanceType struct {
	Name string
	GPU  string
	// HourlyUSD is the on-demand price (2016-era list prices).
	HourlyUSD float64
	// BootDelay is launch-to-ready time.
	BootDelay time.Duration
}

// The two instance classes the course used (§VII).
var (
	G2 = InstanceType{Name: "g2.2xlarge", GPU: "K40", HourlyUSD: 0.65, BootDelay: 4 * time.Minute}
	P2 = InstanceType{Name: "p2.xlarge", GPU: "K80", HourlyUSD: 0.90, BootDelay: 4 * time.Minute}
)

// ErrNoCapacity indicates an assignment was requested from an empty fleet.
var ErrNoCapacity = errors.New("scaling: fleet has no instances")

// Instance is one provisioned worker machine.
type Instance struct {
	ID         int
	Type       InstanceType
	LaunchedAt time.Time
	ReadyAt    time.Time
	Terminated time.Time // zero while active
	// slotFree[i] is when slot i next becomes available. Multiple slots
	// model the multi-job worker mode; one slot is the single-job mode
	// used for accurate benchmarking (§V, §VII).
	slotFree []time.Time
}

// active reports whether the instance is running at t.
func (in *Instance) active(t time.Time) bool {
	return !t.Before(in.LaunchedAt) && (in.Terminated.IsZero() || t.Before(in.Terminated))
}

// Fleet is a set of instances with FIFO job assignment and billing.
type Fleet struct {
	nextID    int
	instances []*Instance
	// SlotsPerInstance is the worker concurrency (jobs in flight).
	SlotsPerInstance int
}

// NewFleet returns an empty fleet with the given worker concurrency.
func NewFleet(slotsPerInstance int) *Fleet {
	if slotsPerInstance < 1 {
		slotsPerInstance = 1
	}
	return &Fleet{SlotsPerInstance: slotsPerInstance}
}

// Launch starts n instances of typ at now; they become ready after the
// boot delay.
func (f *Fleet) Launch(n int, typ InstanceType, now time.Time) {
	for i := 0; i < n; i++ {
		f.nextID++
		ready := now.Add(typ.BootDelay)
		slots := make([]time.Time, f.SlotsPerInstance)
		for j := range slots {
			slots[j] = ready
		}
		f.instances = append(f.instances, &Instance{
			ID: f.nextID, Type: typ, LaunchedAt: now, ReadyAt: ready, slotFree: slots,
		})
	}
}

// Terminate stops up to n instances at now, preferring the ones whose
// slots free earliest (least disruption). It returns how many stopped.
func (f *Fleet) Terminate(n int, now time.Time) int {
	act := f.activeInstances(now)
	sort.Slice(act, func(i, j int) bool {
		return act[i].lastFree().Before(act[j].lastFree())
	})
	stopped := 0
	for _, in := range act {
		if stopped >= n {
			break
		}
		// Never kill an instance mid-job: it terminates when its last
		// slot drains (AWS-style graceful drain).
		end := in.lastFree()
		if end.Before(now) {
			end = now
		}
		in.Terminated = end
		stopped++
	}
	return stopped
}

func (in *Instance) lastFree() time.Time {
	last := in.slotFree[0]
	for _, t := range in.slotFree[1:] {
		if t.After(last) {
			last = t
		}
	}
	return last
}

func (f *Fleet) activeInstances(t time.Time) []*Instance {
	var out []*Instance
	for _, in := range f.instances {
		if in.active(t) {
			out = append(out, in)
		}
	}
	return out
}

// ActiveCount reports instances running at t.
func (f *Fleet) ActiveCount(t time.Time) int { return len(f.activeInstances(t)) }

// Assign schedules a job arriving at arrival with the given service
// duration onto the earliest-available slot (FIFO). It returns the job
// start time; wait = start - arrival.
func (f *Fleet) Assign(arrival time.Time, service time.Duration) (time.Time, error) {
	var best *Instance
	bestSlot := -1
	var bestStart time.Time
	for _, in := range f.instances {
		if !in.Terminated.IsZero() && !arrival.Before(in.Terminated) {
			continue
		}
		for si, free := range in.slotFree {
			start := arrival
			if free.After(start) {
				start = free
			}
			// A terminating instance cannot take work past its drain.
			if !in.Terminated.IsZero() && start.Add(service).After(in.Terminated) {
				continue
			}
			if best == nil || start.Before(bestStart) {
				best, bestSlot, bestStart = in, si, start
			}
		}
	}
	if best == nil {
		return time.Time{}, ErrNoCapacity
	}
	best.slotFree[bestSlot] = bestStart.Add(service)
	return bestStart, nil
}

// OutstandingWork totals busy time scheduled beyond now across all
// slots — the backlog signal provisioning policies consume.
func (f *Fleet) OutstandingWork(now time.Time) time.Duration {
	var total time.Duration
	for _, in := range f.instances {
		for _, free := range in.slotFree {
			if free.After(now) {
				total += free.Sub(now)
			}
		}
	}
	return total
}

// CostUSD bills every instance for its active lifespan through end,
// rounded up to whole hours (AWS 2016 billing granularity).
func (f *Fleet) CostUSD(end time.Time) float64 {
	var total float64
	for _, in := range f.instances {
		stop := end
		if !in.Terminated.IsZero() && in.Terminated.Before(end) {
			stop = in.Terminated
		}
		if stop.Before(in.LaunchedAt) {
			continue
		}
		hours := math.Ceil(stop.Sub(in.LaunchedAt).Hours())
		if hours < 1 {
			hours = 1
		}
		total += hours * in.Type.HourlyUSD
	}
	return total
}

// PolicyInput is the telemetry a provisioning policy sees at a decision
// point (the broker's queue depth is the key signal, §IV).
type PolicyInput struct {
	Now time.Time
	// QueueDepth is jobs waiting for a slot.
	QueueDepth int
	// Active is the current instance count.
	Active int
	// RecentArrivalsPerHour is the arrival rate over the last window.
	RecentArrivalsPerHour float64
	// AvgServiceSeconds is the recent mean job service time.
	AvgServiceSeconds float64
}

// Policy decides the desired fleet size.
type Policy interface {
	Desired(in PolicyInput) int
	Name() string
}

// FixedPolicy is the local-cluster baseline: capacity never changes
// (§III "the fixed resources of the local cluster can become
// oversubscribed during the final weeks").
type FixedPolicy struct{ N int }

// Desired implements Policy.
func (p FixedPolicy) Desired(PolicyInput) int { return p.N }

// Name implements Policy.
func (p FixedPolicy) Name() string { return fmt.Sprintf("fixed-%d", p.N) }

// ElasticPolicy sizes the fleet to the offered load with headroom,
// within [Min, Max] — RAI's cost-efficient elasticity (§VII: "students
// worked in bursts, which required RAI to be elastic to remain reliable
// and cost-efficient").
type ElasticPolicy struct {
	Min, Max int
	// SlotsPerInstance mirrors the fleet's concurrency.
	SlotsPerInstance int
	// Headroom multiplies the load-derived size (default 1.5).
	Headroom float64
}

// Desired implements Policy: size ≈ offered load (Erlangs) × headroom,
// plus an immediate reaction to standing backlog.
func (p ElasticPolicy) Desired(in PolicyInput) int {
	headroom := p.Headroom
	if headroom <= 0 {
		headroom = 1.5
	}
	slots := p.SlotsPerInstance
	if slots < 1 {
		slots = 1
	}
	offered := in.RecentArrivalsPerHour * in.AvgServiceSeconds / 3600 // busy slots needed
	fromLoad := int(math.Ceil(offered * headroom / float64(slots)))
	fromBacklog := int(math.Ceil(float64(in.QueueDepth) / float64(slots*4)))
	desired := fromLoad + fromBacklog
	if desired < p.Min {
		desired = p.Min
	}
	if desired > p.Max {
		desired = p.Max
	}
	return desired
}

// Name implements Policy.
func (p ElasticPolicy) Name() string { return fmt.Sprintf("elastic-%d..%d", p.Min, p.Max) }
