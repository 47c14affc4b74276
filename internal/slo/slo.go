// Package slo evaluates service-level objectives against the
// telemetry the daemons already export. An Objective declares a
// RED-style target — availability (bad/total counters) or latency (a
// histogram and a threshold) — and the Engine turns periodic scrape
// snapshots into multi-window burn rates, the SRE-workbook alerting
// construct: an alert fires only when both a long and a short window
// burn error budget faster than the rule allows, so sustained damage
// pages quickly while blips and stale incidents do not.
package slo

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Selector names a metric family plus the label subset a sample must
// carry to count. Samples from every scraped endpoint that match are
// summed, so one objective naturally aggregates a worker fleet.
type Selector struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Objective is one declared SLO. Exactly one of the two forms must be
// set: availability (Total + Bad counters) or latency (Histogram +
// ThresholdSeconds, where a request is good when it lands in a bucket
// at or under the threshold).
type Objective struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Target is the fraction of good requests promised, e.g. 0.99.
	Target float64 `json:"target"`

	// Availability form.
	Total *Selector `json:"total,omitempty"`
	Bad   *Selector `json:"bad,omitempty"`

	// Latency form. The threshold should sit on a bucket edge of the
	// histogram; otherwise the next edge above it is used (documented
	// exposition-side quantization, not a silent lie).
	Histogram        *Selector `json:"histogram,omitempty"`
	ThresholdSeconds float64   `json:"threshold_s,omitempty"`
}

// Validate reports whether the objective is well-formed.
func (o *Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective without a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
	}
	avail := o.Total != nil && o.Bad != nil
	lat := o.Histogram != nil
	switch {
	case avail && lat:
		return fmt.Errorf("slo: objective %s declares both availability and latency forms", o.Name)
	case avail:
		if o.Total.Name == "" || o.Bad.Name == "" {
			return fmt.Errorf("slo: objective %s: empty selector name", o.Name)
		}
	case lat:
		if o.Histogram.Name == "" {
			return fmt.Errorf("slo: objective %s: empty histogram name", o.Name)
		}
		if o.ThresholdSeconds <= 0 {
			return fmt.Errorf("slo: objective %s: latency threshold must be positive", o.Name)
		}
	default:
		return fmt.Errorf("slo: objective %s declares neither availability (total+bad) nor latency (histogram+threshold_s)", o.Name)
	}
	return nil
}

// Rule is one multi-window burn-rate alert: it fires when the error
// budget burns at >= Burn× the sustainable rate over BOTH windows.
type Rule struct {
	Name  string        `json:"name"`
	Long  time.Duration `json:"-"`
	Short time.Duration `json:"-"`
	// Burn is the burn-rate threshold (1.0 = spending budget exactly at
	// the rate that exhausts it at the window's end of the SLO period).
	Burn float64 `json:"burn"`
}

// ruleJSON is the wire form of Rule, with Go duration strings.
type ruleJSON struct {
	Name  string  `json:"name"`
	Long  string  `json:"long"`
	Short string  `json:"short"`
	Burn  float64 `json:"burn"`
}

// MarshalJSON renders durations as strings ("1h0m0s").
func (r Rule) MarshalJSON() ([]byte, error) {
	return json.Marshal(ruleJSON{Name: r.Name, Long: r.Long.String(), Short: r.Short.String(), Burn: r.Burn})
}

// UnmarshalJSON parses durations from strings ("1h", "5m").
func (r *Rule) UnmarshalJSON(data []byte) error {
	var w ruleJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	long, err := time.ParseDuration(w.Long)
	if err != nil {
		return fmt.Errorf("slo: rule %s: bad long window %q: %v", w.Name, w.Long, err)
	}
	short, err := time.ParseDuration(w.Short)
	if err != nil {
		return fmt.Errorf("slo: rule %s: bad short window %q: %v", w.Name, w.Short, err)
	}
	*r = Rule{Name: w.Name, Long: long, Short: short, Burn: w.Burn}
	return nil
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule without a name")
	}
	if r.Long <= 0 || r.Short <= 0 || r.Short > r.Long {
		return fmt.Errorf("slo: rule %s: need 0 < short <= long, got long %v short %v", r.Name, r.Long, r.Short)
	}
	if r.Burn <= 0 {
		return fmt.Errorf("slo: rule %s: burn threshold must be positive", r.Name)
	}
	return nil
}

// Config is the on-disk declaration raiadmin loads with -slo.
type Config struct {
	Objectives []Objective `json:"objectives"`
	// Rules override DefaultRules when non-empty.
	Rules []Rule `json:"rules,omitempty"`
}

// ParseConfig decodes and validates a JSON config.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("slo: parsing config: %w", err)
	}
	if len(c.Objectives) == 0 {
		return nil, fmt.Errorf("slo: config declares no objectives")
	}
	seen := map[string]bool{}
	for i := range c.Objectives {
		o := &c.Objectives[i]
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %s", o.Name)
		}
		seen[o.Name] = true
	}
	for _, r := range c.Rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

// DefaultRules are the SRE-workbook pair: fast burn pages, slow burn
// tickets. Burn thresholds assume a 30-day budget period (14.4 = 2% of
// budget in 1 h; 6 = 5% in 6 h).
func DefaultRules() []Rule {
	return []Rule{
		{Name: "page", Long: time.Hour, Short: 5 * time.Minute, Burn: 14.4},
		{Name: "ticket", Long: 6 * time.Hour, Short: 30 * time.Minute, Burn: 6},
	}
}

// DefaultObjectives cover the deployment's user-visible promises using
// series every stock daemon already exports: job success, job latency,
// queue delay, and storage latency.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:        "worker-availability",
			Description: "jobs finish without system failure",
			Target:      0.99,
			Total:       &Selector{Name: "rai_worker_jobs_total"},
			Bad:         &Selector{Name: "rai_worker_jobs_total", Labels: map[string]string{"status": "failed"}},
		},
		{
			Name:             "worker-latency",
			Description:      "jobs complete within a minute of dequeue",
			Target:           0.95,
			Histogram:        &Selector{Name: "rai_worker_job_seconds"},
			ThresholdSeconds: 60,
		},
		{
			Name:             "queue-delay",
			Description:      "jobs wait under 30s for a worker",
			Target:           0.95,
			Histogram:        &Selector{Name: "rai_queue_delay_seconds"},
			ThresholdSeconds: 30,
		},
		{
			Name:             "objstore-latency",
			Description:      "file-server requests finish within 1s",
			Target:           0.99,
			Histogram:        &Selector{Name: "rai_objstore_request_seconds"},
			ThresholdSeconds: 1,
		},
	}
}

// parseLE parses a bucket's le label ("+Inf" included).
func parseLE(s string) (float64, bool) {
	if s == "+Inf" {
		return inf, true
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}
