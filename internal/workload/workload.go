// Package workload models student behaviour over the five-week course
// project, calibrated against the paper's §VII observations: 176
// students in 58 teams, over 40,000 submissions in total with 30,782 in
// the final two weeks, submission bursts that "followed their circadian
// rhythm" (Figure 4), and a final-runtime distribution whose top-30
// histogram has its mode in the 0.4–0.5 s bin with a ~2-minute tail
// (Figure 2).
//
// Everything is generated deterministically from a seed: team skills,
// kernel-optimization progress, per-hour Poisson submission counts, and
// injected failures (compile errors, crashes).
package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rai/internal/cnn"
	"rai/internal/project"
)

// Config parameterizes a course generation.
type Config struct {
	Seed     uint64
	Teams    int       // 58 in fall 2016
	Students int       // 176 in fall 2016
	Start    time.Time // project start
	Deadline time.Time // final submission deadline
	// TargetSubmissions is the expected total count (paper: >40,000).
	TargetSubmissions int
	// DeadlineRamp shapes the growth of activity toward the deadline;
	// ~3.1 puts ≈75% of submissions in the final two weeks of a five
	// week project, matching 30,782/40,000.
	DeadlineRamp float64
	// CompileErrorRate and CrashRate inject realistic failures.
	CompileErrorRate float64
	CrashRate        float64
}

// Fall2016 returns the paper's course parameters.
func Fall2016() Config {
	deadline := time.Date(2016, 12, 16, 23, 59, 0, 0, time.UTC)
	return Config{
		Seed:              408,
		Teams:             58,
		Students:          176,
		Start:             deadline.Add(-35 * 24 * time.Hour),
		Deadline:          deadline,
		TargetSubmissions: 41_000,
		DeadlineRamp:      3.1,
		CompileErrorRate:  0.08,
		CrashRate:         0.03,
	}
}

// Team is one project team.
type Team struct {
	Name    string
	Members int
	// Skill in [0,1) drives optimization progress and final runtime.
	Skill float64
	// FinalImpl and FinalTuning determine the final-submission runtime.
	FinalImpl   cnn.Impl
	FinalTuning float64
	// Activity multiplies the team's submission rate.
	Activity float64
}

// Submission is one generated client action.
type Submission struct {
	Time time.Time
	Team string
	// Kind is core.KindRun or core.KindSubmit ("run"/"submit" strings to
	// avoid an import cycle with core).
	Kind string
	// Spec is the project tree the team submits at this point.
	Spec project.Spec
}

// Course is a generated term.
type Course struct {
	Cfg         Config
	Teams       []Team
	Submissions []Submission // sorted by time
}

// prng is the same xorshift generator the cnn package uses, duplicated
// here to keep packages decoupled.
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// float returns a uniform float64 in [0,1).
func (p *prng) float() float64 { return float64(p.next()>>11) / float64(1<<53) }

// poisson draws from Poisson(lambda) via Knuth's method (λ stays small
// per team-hour).
func (p *prng) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, prod := 0, 1.0
	for {
		prod *= p.float()
		if prod <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // safety net; unreachable for calibrated λ
		}
	}
}

// circadian is the relative submission intensity by hour of day,
// normalized to mean 1: quiet pre-dawn, afternoon peak, late-night
// second wind — the rhythm visible in Figure 4.
var circadian = [24]float64{
	0.45, 0.30, 0.20, 0.12, 0.10, 0.12, // 00-05
	0.25, 0.45, 0.70, 0.95, 1.15, 1.30, // 06-11
	1.35, 1.45, 1.55, 1.65, 1.60, 1.50, // 12-17
	1.45, 1.40, 1.50, 1.55, 1.30, 0.86, // 18-23
}

// finalProfile maps a team's skill to its final kernel and tuning,
// calibrated so the modeled runtimes reproduce Figure 2's shape: the
// best teams land in 0.4–0.5 s, most of the top 30 under a second, and
// the slowest teams take minutes.
func finalProfile(skill float64, rng *prng) (cnn.Impl, float64) {
	switch {
	case skill >= 0.82: // ~10 teams reach the best kernel shape
		return cnn.ImplParallel, 1.0 + 0.55*rng.float()
	case skill >= 0.55: // im2col + GEMM: 0.6–1.1 s
		return cnn.ImplIm2col, 1.0 + 0.8*rng.float()
	case skill >= 0.30: // shared-memory tiling: 1.2–2.6 s
		return cnn.ImplTiled, 1.0 + 1.2*rng.float()
	case skill >= 0.10: // first working kernel: 3–12 s
		return cnn.ImplLoopReorder, 1.0 + 3.0*rng.float()
	default: // barely-working kernels: tens of seconds to ~2 min
		return cnn.ImplLoopReorder, 10 + 30*rng.float()
	}
}

// implAt returns the team's kernel level at progress p in [0,1]: teams
// advance through the levels at skill-dependent speed.
func implAt(team Team, p float64) cnn.Impl {
	// Progress needed to reach each level shrinks with skill.
	speed := 0.45 + 0.8*team.Skill
	reached := int(p * speed * 6)
	final := int(team.FinalImpl)
	if reached > final {
		reached = final
	}
	if reached < 0 {
		reached = 0
	}
	return cnn.Impl(reached)
}

// Generate builds the course deterministically from cfg.
func Generate(cfg Config) *Course {
	if cfg.Teams <= 0 {
		cfg.Teams = 58
	}
	if cfg.TargetSubmissions <= 0 {
		cfg.TargetSubmissions = 41_000
	}
	if cfg.DeadlineRamp == 0 {
		cfg.DeadlineRamp = 3.1
	}
	rng := newPRNG(cfg.Seed)
	course := &Course{Cfg: cfg}

	// Teams: skills spread uniformly with deterministic jitter; sizes
	// chosen so members sum ≈ Students (teams of 2–4, §I).
	var totalActivity float64
	for i := 0; i < cfg.Teams; i++ {
		skill := (float64(i) + rng.float()) / float64(cfg.Teams)
		impl, tuning := finalProfile(skill, rng)
		team := Team{
			Name:        fmt.Sprintf("team%02d", i+1),
			Members:     2 + int(rng.next()%3),
			Skill:       skill,
			FinalImpl:   impl,
			FinalTuning: tuning,
			Activity:    0.5 + 1.5*rng.float(),
		}
		course.Teams = append(course.Teams, team)
		totalActivity += team.Activity
	}

	// Hourly Poisson arrivals shaped by ramp × circadian × activity.
	hours := int(cfg.Deadline.Sub(cfg.Start) / time.Hour)
	rampAt := func(h int) float64 {
		frac := float64(h) / float64(hours)
		return math.Exp(cfg.DeadlineRamp * frac)
	}
	// Normalize so the expected total matches TargetSubmissions.
	var weightSum float64
	for h := 0; h < hours; h++ {
		hourOfDay := cfg.Start.Add(time.Duration(h) * time.Hour).Hour()
		weightSum += rampAt(h) * circadian[hourOfDay]
	}
	// E[total] = Σ_teams Σ_hours base·activity·ramp·circ = base·totalActivity·weightSum
	base := float64(cfg.TargetSubmissions) / (totalActivity * weightSum)

	for ti := range course.Teams {
		team := &course.Teams[ti]
		trng := newPRNG(cfg.Seed*1_000_003 + uint64(ti)*7919 + 17)
		for h := 0; h < hours; h++ {
			t0 := cfg.Start.Add(time.Duration(h) * time.Hour)
			lambda := base * team.Activity * rampAt(h) * circadian[t0.Hour()]
			n := trng.poisson(lambda)
			for k := 0; k < n; k++ {
				at := t0.Add(time.Duration(trng.float() * float64(time.Hour)))
				progress := float64(h) / float64(hours)
				impl := implAt(*team, progress)
				// Tuning anneals toward the final value as the team
				// iterates; earlier submissions run slower.
				anneal := 1 + (1-progress)*1.5*trng.float()
				spec := project.Spec{
					Impl:   impl,
					Tuning: team.FinalTuning * anneal,
					Team:   team.Name,
				}
				switch {
				case trng.float() < cfg.CompileErrorRate:
					spec.Bug = "compile"
				case trng.float() < cfg.CrashRate:
					spec.Bug = "crash"
				}
				course.Submissions = append(course.Submissions, Submission{
					Time: at, Team: team.Name, Kind: "run", Spec: spec,
				})
			}
		}
		// Final submissions in the last three days: 1–3 attempts, the
		// last one with the team's final profile and required files.
		finals := 1 + int(trng.next()%3)
		for k := 0; k < finals; k++ {
			back := time.Duration(trng.float()*60) * time.Hour
			at := cfg.Deadline.Add(-back / time.Duration(k+1))
			course.Submissions = append(course.Submissions, Submission{
				Time: at, Team: team.Name, Kind: "submit",
				Spec: project.Spec{
					Impl:       team.FinalImpl,
					Tuning:     team.FinalTuning * (1 + 0.05*trng.float()*float64(finals-1-k)),
					Team:       team.Name,
					WithUsage:  true,
					WithReport: true,
				},
			})
		}
	}
	sort.SliceStable(course.Submissions, func(i, j int) bool {
		return course.Submissions[i].Time.Before(course.Submissions[j].Time)
	})
	return course
}

// LastTwoWeeks filters submissions to the final 14 days (Figure 4's
// window).
func (c *Course) LastTwoWeeks() []Submission {
	cutoff := c.Cfg.Deadline.Add(-14 * 24 * time.Hour)
	var out []Submission
	for _, s := range c.Submissions {
		if !s.Time.Before(cutoff) {
			out = append(out, s)
		}
	}
	return out
}
