package scaling

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2016, 12, 9, 0, 0, 0, 0, time.UTC)

func TestLaunchBootDelay(t *testing.T) {
	f := NewFleet(1)
	f.Launch(2, P2, t0)
	if got := f.ActiveCount(t0); got != 2 {
		t.Fatalf("active = %d", got)
	}
	// A job arriving immediately waits for boot.
	start, err := f.Assign(t0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(t0.Add(P2.BootDelay)) {
		t.Errorf("start = %v, want after boot delay", start)
	}
}

func TestAssignFIFOAcrossSlots(t *testing.T) {
	f := NewFleet(1)
	f.Launch(2, P2, t0.Add(-time.Hour)) // long booted
	s1, _ := f.Assign(t0, time.Minute)
	s2, _ := f.Assign(t0, time.Minute)
	s3, _ := f.Assign(t0, time.Minute)
	if !s1.Equal(t0) || !s2.Equal(t0) {
		t.Fatalf("first two should start immediately: %v %v", s1, s2)
	}
	if !s3.Equal(t0.Add(time.Minute)) {
		t.Fatalf("third start = %v, want queued behind a slot", s3)
	}
}

func TestMultiSlotInstance(t *testing.T) {
	f := NewFleet(4)
	f.Launch(1, P2, t0.Add(-time.Hour))
	for i := 0; i < 4; i++ {
		s, err := f.Assign(t0, time.Minute)
		if err != nil || !s.Equal(t0) {
			t.Fatalf("slot %d start = %v, %v", i, s, err)
		}
	}
	s, _ := f.Assign(t0, time.Minute)
	if !s.Equal(t0.Add(time.Minute)) {
		t.Fatalf("fifth job start = %v", s)
	}
}

func TestAssignEmptyFleet(t *testing.T) {
	f := NewFleet(1)
	if _, err := f.Assign(t0, time.Second); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestTerminateDrainsGracefully(t *testing.T) {
	f := NewFleet(1)
	f.Launch(2, P2, t0.Add(-time.Hour))
	// Occupy one instance until t0+10m.
	f.Assign(t0, 10*time.Minute)
	stopped := f.Terminate(2, t0)
	if stopped != 2 {
		t.Fatalf("stopped = %d", stopped)
	}
	// The busy instance drains at t0+10m; the idle one stops now.
	if got := f.ActiveCount(t0.Add(5 * time.Minute)); got != 1 {
		t.Errorf("active at +5m = %d, want 1 (draining)", got)
	}
	if got := f.ActiveCount(t0.Add(11 * time.Minute)); got != 0 {
		t.Errorf("active at +11m = %d, want 0", got)
	}
	// No new work lands on terminated instances.
	if _, err := f.Assign(t0.Add(20*time.Minute), time.Second); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("assign after drain: %v", err)
	}
}

func TestTerminatingInstanceRejectsWorkPastDrain(t *testing.T) {
	f := NewFleet(1)
	f.Launch(1, P2, t0.Add(-time.Hour))
	f.Assign(t0, 10*time.Minute) // drains at +10m
	f.Terminate(1, t0)
	// A 5-minute job arriving at +1m would finish at +15m > drain: refused.
	if _, err := f.Assign(t0.Add(time.Minute), 5*time.Minute); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("assign past drain: %v", err)
	}
}

func TestOutstandingWork(t *testing.T) {
	f := NewFleet(1)
	f.Launch(1, P2, t0.Add(-time.Hour))
	f.Assign(t0, 10*time.Minute)
	if got := f.OutstandingWork(t0); got != 10*time.Minute {
		t.Errorf("outstanding = %v", got)
	}
	if got := f.OutstandingWork(t0.Add(4 * time.Minute)); got != 6*time.Minute {
		t.Errorf("outstanding at +4m = %v", got)
	}
	if got := f.OutstandingWork(t0.Add(time.Hour)); got != 0 {
		t.Errorf("outstanding after drain = %v", got)
	}
}

func TestCostBillsWholeHours(t *testing.T) {
	f := NewFleet(1)
	f.Launch(1, P2, t0)
	// 90 minutes active → 2 billed hours.
	if got := f.CostUSD(t0.Add(90 * time.Minute)); got != 2*P2.HourlyUSD {
		t.Errorf("cost = %v, want %v", got, 2*P2.HourlyUSD)
	}
	// Terminated instances stop accruing.
	f.Terminate(1, t0.Add(30*time.Minute))
	if got := f.CostUSD(t0.Add(10 * time.Hour)); got != 1*P2.HourlyUSD {
		t.Errorf("post-terminate cost = %v", got)
	}
}

func TestG2CheaperThanP2(t *testing.T) {
	// §VII: "These instances are cheaper than instances with more
	// powerful GPU resources."
	if G2.HourlyUSD >= P2.HourlyUSD {
		t.Errorf("G2 $%v not cheaper than P2 $%v", G2.HourlyUSD, P2.HourlyUSD)
	}
	if G2.GPU != "K40" || P2.GPU != "K80" {
		t.Errorf("GPU models: %s/%s", G2.GPU, P2.GPU)
	}
}

func TestFixedPolicy(t *testing.T) {
	p := FixedPolicy{N: 7}
	if p.Desired(PolicyInput{QueueDepth: 1000}) != 7 {
		t.Error("fixed policy moved")
	}
	if p.Name() != "fixed-7" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestElasticPolicyScalesWithLoad(t *testing.T) {
	p := ElasticPolicy{Min: 2, Max: 30, SlotsPerInstance: 1}
	idle := p.Desired(PolicyInput{RecentArrivalsPerHour: 0, AvgServiceSeconds: 30})
	if idle != 2 {
		t.Errorf("idle desired = %d, want Min", idle)
	}
	// 600 jobs/hour at 60 s each = 10 Erlangs → ~15 with headroom.
	busy := p.Desired(PolicyInput{RecentArrivalsPerHour: 600, AvgServiceSeconds: 60})
	if busy < 10 || busy > 30 {
		t.Errorf("busy desired = %d", busy)
	}
	// Saturating load clamps at Max.
	insane := p.Desired(PolicyInput{RecentArrivalsPerHour: 100000, AvgServiceSeconds: 60})
	if insane != 30 {
		t.Errorf("clamped desired = %d", insane)
	}
	// Standing backlog forces extra capacity even with zero arrivals.
	backlog := p.Desired(PolicyInput{QueueDepth: 100, AvgServiceSeconds: 30})
	if backlog <= 2 {
		t.Errorf("backlog desired = %d", backlog)
	}
	if p.Name() != "elastic-2..30" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestElasticPolicyMultiSlot(t *testing.T) {
	single := ElasticPolicy{Min: 1, Max: 30, SlotsPerInstance: 1}
	quad := ElasticPolicy{Min: 1, Max: 30, SlotsPerInstance: 4}
	in := PolicyInput{RecentArrivalsPerHour: 600, AvgServiceSeconds: 60}
	if quad.Desired(in) >= single.Desired(in) {
		t.Errorf("multi-slot workers should need fewer instances: %d vs %d",
			quad.Desired(in), single.Desired(in))
	}
}
