package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

var inf = math.Inf(1)

// sample is one cumulative (bad, total) reading for an objective.
type sample struct {
	t          time.Time
	bad, total float64
}

// Engine turns periodic scrape snapshots into burn rates. Feed it with
// Observe on every scrape tick; read it with Evaluate, or hang its
// gauges off a registry with Export. Safe for concurrent use.
type Engine struct {
	clk   clock.Clock
	objs  []Objective
	rules []Rule

	mu   sync.Mutex
	hist map[string][]sample
}

// Option configures NewEngine.
type Option func(*Engine)

// WithClock injects a time source (virtual in tests).
func WithClock(clk clock.Clock) Option { return func(e *Engine) { e.clk = clk } }

// WithRules replaces DefaultRules.
func WithRules(rules []Rule) Option { return func(e *Engine) { e.rules = rules } }

// NewEngine builds an engine over the given objectives (DefaultObjectives
// when empty). Objectives are assumed validated.
func NewEngine(objs []Objective, opts ...Option) *Engine {
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}
	e := &Engine{
		clk:   clock.Real{},
		objs:  objs,
		rules: DefaultRules(),
		hist:  map[string][]sample{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Objectives returns the declared objectives (callers must not mutate).
func (e *Engine) Objectives() []Objective { return e.objs }

// Rules returns the active burn-rate rules.
func (e *Engine) Rules() []Rule { return e.rules }

// Observe folds one scrape round into the history: each objective's
// (bad, total) is summed across all snapshots (a worker fleet scrapes
// as several endpoints) and recorded at the engine clock's now.
func (e *Engine) Observe(snaps ...*telemetry.Snapshot) {
	now := e.clk.Now()
	keep := 2 * e.maxWindow()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		bad, total := counts(&o, snaps)
		h := append(e.hist[o.Name], sample{t: now, bad: bad, total: total})
		// Prune anything older than twice the longest window.
		cut := 0
		for cut < len(h)-1 && now.Sub(h[cut].t) > keep {
			cut++
		}
		e.hist[o.Name] = h[cut:]
	}
}

func (e *Engine) maxWindow() time.Duration {
	max := time.Minute
	for _, r := range e.rules {
		if r.Long > max {
			max = r.Long
		}
	}
	return max
}

// counts resolves an objective's cumulative (bad, total) over a scrape
// round.
func counts(o *Objective, snaps []*telemetry.Snapshot) (bad, total float64) {
	if o.Histogram == nil {
		return sumMatch(snaps, o.Bad), sumMatch(snaps, o.Total)
	}
	countSel := Selector{Name: o.Histogram.Name + "_count", Labels: o.Histogram.Labels}
	total = sumMatch(snaps, &countSel)
	good := bucketSum(snaps, o.Histogram, o.ThresholdSeconds)
	bad = total - good
	if bad < 0 {
		bad = 0
	}
	return bad, total
}

// sumMatch sums every sample matching the selector across all
// snapshots. A sample matches when its name equals sel.Name and it
// carries every label in sel.Labels with the exact value (extra labels
// are fine — that is what lets one selector aggregate statuses).
func sumMatch(snaps []*telemetry.Snapshot, sel *Selector) float64 {
	var sum float64
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		for _, s := range snap.Samples {
			if s.Name != sel.Name || !labelsMatch(s.Labels, sel.Labels) {
				continue
			}
			sum += s.Value
		}
	}
	return sum
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// bucketSum sums, over every matching series, the cumulative bucket at
// the smallest edge >= threshold — the count of requests at or under
// the threshold. The edge is resolved per series because a histogram
// exposes edges only up to its highest populated one: a series whose
// samples all sit under the threshold may have no finite edge there,
// and its +Inf bucket is then exactly its good count. A threshold
// beyond the layout's last edge resolves to +Inf on every series
// (everything counts as good; the objective is toothless and the
// operator declared a threshold off the histogram's scale).
func bucketSum(snaps []*telemetry.Snapshot, sel *Selector, threshold float64) float64 {
	name := sel.Name + "_bucket"
	const slack = 1e-9 // float-format tolerance: 0.1 printed and re-parsed stays 0.1, but guard anyway
	type bucket struct{ le, count float64 }
	var sum float64
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		series := map[string]bucket{} // by label set without le
		for _, s := range snap.Samples {
			if s.Name != name || !labelsMatch(s.Labels, sel.Labels) {
				continue
			}
			le, ok := parseLE(s.Labels["le"])
			if !ok || le < threshold*(1-slack) {
				continue
			}
			key := seriesKey(s.Labels)
			if b, seen := series[key]; !seen || le < b.le {
				series[key] = bucket{le, s.Value}
			}
		}
		for _, b := range series {
			sum += b.count
		}
	}
	return sum
}

// seriesKey identifies a bucket sample's series: its labels minus le
// (fmt prints a map in key order, so equal label sets render alike).
func seriesKey(labels map[string]string) string {
	rest := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			rest[k] = v
		}
	}
	return fmt.Sprint(rest)
}

// errRate computes the bad/total ratio over the trailing window,
// locked. With a single observation the delta is taken from zero —
// i.e. the counters' whole lifetime — which is what makes a one-shot
// `raiadmin health` meaningful against daemons scraped only once.
func (e *Engine) errRate(name string, window time.Duration) float64 {
	h := e.hist[name]
	if len(h) == 0 {
		return 0
	}
	latest := h[len(h)-1]
	start := e.clk.Now().Add(-window)
	// Baseline: the newest sample at or before the window start; the
	// oldest sample when history is shorter than the window (honest
	// degradation — the rate covers what was actually seen).
	base := sample{}
	found := false
	for i := len(h) - 1; i >= 0; i-- {
		if !h[i].t.After(start) {
			base = h[i]
			found = true
			break
		}
	}
	if !found && len(h) > 1 {
		base = h[0]
	}
	dBad, dTotal := latest.bad-base.bad, latest.total-base.total
	if dTotal <= 0 {
		return 0
	}
	if dBad < 0 {
		dBad = 0 // counter reset (daemon restart): clamp, never negative
	}
	return dBad / dTotal
}

// burn converts an error rate into a burn rate for the objective's
// budget: 1.0 means spending exactly the budget, N means N× too fast.
func burn(errRate, target float64) float64 {
	budget := 1 - target
	if budget <= 0 {
		return 0
	}
	return errRate / budget
}

// RuleStatus is one rule evaluated for one objective.
type RuleStatus struct {
	Rule      Rule    `json:"rule"`
	LongBurn  float64 `json:"long_burn"`
	ShortBurn float64 `json:"short_burn"`
	// Firing means both windows burn above the rule's threshold.
	Firing bool `json:"firing"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// Bad/Total are the latest cumulative readings.
	Bad   float64 `json:"bad"`
	Total float64 `json:"total"`
	// ErrorRate is measured over the longest rule window.
	ErrorRate float64 `json:"error_rate"`
	// BudgetRemaining is 1 - ErrorRate/(1-Target): 1 with a clean
	// window, 0 at the SLO boundary, negative when overspent.
	BudgetRemaining float64      `json:"budget_remaining"`
	Rules           []RuleStatus `json:"rules"`
	// Healthy means no rule is firing.
	Healthy bool `json:"healthy"`
}

// Evaluate computes every objective's burn rates and rule verdicts.
// Results are sorted by objective name.
func (e *Engine) Evaluate() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objs))
	longest := e.maxWindow()
	for _, o := range e.objs {
		st := ObjectiveStatus{
			Name: o.Name, Description: o.Description, Target: o.Target, Healthy: true,
		}
		if h := e.hist[o.Name]; len(h) > 0 {
			st.Bad, st.Total = h[len(h)-1].bad, h[len(h)-1].total
		}
		st.ErrorRate = e.errRate(o.Name, longest)
		st.BudgetRemaining = 1 - burn(st.ErrorRate, o.Target)
		for _, r := range e.rules {
			rs := RuleStatus{
				Rule:      r,
				LongBurn:  burn(e.errRate(o.Name, r.Long), o.Target),
				ShortBurn: burn(e.errRate(o.Name, r.Short), o.Target),
			}
			rs.Firing = rs.LongBurn >= r.Burn && rs.ShortBurn >= r.Burn
			if rs.Firing {
				st.Healthy = false
			}
			st.Rules = append(st.Rules, rs)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Healthy reports whether every objective in statuses is healthy.
func Healthy(statuses []ObjectiveStatus) bool {
	for _, st := range statuses {
		if !st.Healthy {
			return false
		}
	}
	return true
}

// Export registers the engine's state as live gauges:
//
//	rai_slo_burn_rate{objective,window}          burn over each rule window
//	rai_slo_error_budget_remaining_ratio{objective}
//	rai_slo_healthy{objective}                   1 when no rule fires
//	rai_slo_target{objective}
//
// Values are computed at scrape time from the current history.
func (e *Engine) Export(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	// One burn-rate series per distinct window across all rules.
	windows := map[time.Duration]bool{}
	for _, r := range e.rules {
		windows[r.Long] = true
		windows[r.Short] = true
	}
	for _, o := range e.objs {
		for w := range windows {
			reg.GaugeFunc("rai_slo_burn_rate",
				"error-budget burn rate over the trailing window (1 = exactly on budget)",
				func() float64 {
					e.mu.Lock()
					defer e.mu.Unlock()
					return burn(e.errRate(o.Name, w), o.Target)
				},
				telemetry.L("objective", o.Name), telemetry.L("window", w.String()))
		}
		reg.GaugeFunc("rai_slo_error_budget_remaining_ratio",
			"fraction of error budget left over the longest window (negative = overspent)",
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return 1 - burn(e.errRate(o.Name, e.maxWindow()), o.Target)
			},
			telemetry.L("objective", o.Name))
		reg.GaugeFunc("rai_slo_healthy",
			"1 when no burn-rate rule fires for the objective",
			func() float64 {
				for _, st := range e.Evaluate() {
					if st.Name == o.Name {
						if st.Healthy {
							return 1
						}
						return 0
					}
				}
				return 1
			},
			telemetry.L("objective", o.Name))
		reg.Gauge("rai_slo_target", "declared SLO target",
			telemetry.L("objective", o.Name)).Set(o.Target)
	}
}

// Format renders statuses as an aligned human-readable table, one
// objective per line plus a line per firing rule.
func Format(statuses []ObjectiveStatus) string {
	out := ""
	for _, st := range statuses {
		state := "ok"
		if !st.Healthy {
			state = "BREACH"
		}
		out += fmt.Sprintf("%-22s %-6s target=%.3f err=%.4f budget=%+.2f bad=%.0f total=%.0f\n",
			st.Name, state, st.Target, st.ErrorRate, st.BudgetRemaining, st.Bad, st.Total)
		for _, rs := range st.Rules {
			if rs.Firing {
				out += fmt.Sprintf("  rule %-8s FIRING burn long[%v]=%.1f short[%v]=%.1f (threshold %.1f)\n",
					rs.Rule.Name, rs.Rule.Long, rs.LongBurn, rs.Rule.Short, rs.ShortBurn, rs.Rule.Burn)
			}
		}
	}
	return out
}
