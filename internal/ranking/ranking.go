// Package ranking implements the competition leaderboard (paper §VI
// "Competition Ranking"): teams submit final runs, see their own rank,
// and see other teams' runtimes anonymized. It also produces the runtime
// histogram of the paper's Figure 2.
package ranking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"rai/internal/docstore"
)

// Collection is the rankings collection name (shared with core).
const Collection = "rankings"

// Entry is one leaderboard row.
type Entry struct {
	Rank    int
	Team    string // anonymized unless it is the viewer's team
	Runtime time.Duration
	// Accuracy is the verification accuracy of the ranked submission.
	Accuracy float64
	// Mine marks the viewer's own team.
	Mine bool
}

// ErrNoSubmission indicates the team has no ranked submission yet.
var ErrNoSubmission = errors.New("ranking: team has no final submission")

// Leaderboard reads and ranks competition submissions.
type Leaderboard struct {
	DB docstore.Store
	// MinAccuracy excludes submissions below the target accuracy
	// ("Teams were required to ... maintain a target accuracy", §VI).
	MinAccuracy float64
}

// row is the stored shape.
type row struct {
	Team     string  `json:"team"`
	Runtime  float64 `json:"runtime_s"`
	Accuracy float64 `json:"accuracy"`
}

// load reads all qualifying rows sorted by runtime.
func (l *Leaderboard) load(ctx context.Context) ([]row, error) {
	docs, err := l.DB.Find(ctx, Collection, docstore.M{}, docstore.FindOpts{Sort: []string{"runtime_s", "team"}})
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, d := range docs {
		var r row
		if err := docstore.Decode(d, &r); err != nil {
			return nil, err
		}
		if l.MinAccuracy > 0 && r.Accuracy < l.MinAccuracy {
			continue
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// View renders the leaderboard as seen by viewerTeam: other teams are
// anonymized ("students could also see other teams' anonymized
// runtimes", §VI). An empty viewerTeam renders the instructor view with
// real names.
func (l *Leaderboard) View(ctx context.Context, viewerTeam string) ([]Entry, error) {
	rows, err := l.load(ctx)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(rows))
	for i, r := range rows {
		e := Entry{
			Rank:     i + 1,
			Runtime:  time.Duration(r.Runtime * float64(time.Second)),
			Accuracy: r.Accuracy,
		}
		switch {
		case viewerTeam == "":
			e.Team = r.Team // instructor view
		case r.Team == viewerTeam:
			e.Team = r.Team
			e.Mine = true
		default:
			e.Team = fmt.Sprintf("Team #%d", i+1)
		}
		entries[i] = e
	}
	return entries, nil
}

// RankOf returns viewerTeam's rank (1-based) and total ranked teams.
func (l *Leaderboard) RankOf(ctx context.Context, team string) (rank, total int, err error) {
	rows, err := l.load(ctx)
	if err != nil {
		return 0, 0, err
	}
	for i, r := range rows {
		if r.Team == team {
			return i + 1, len(rows), nil
		}
	}
	return 0, len(rows), fmt.Errorf("%w: %q", ErrNoSubmission, team)
}

// Format renders entries as the client's `rai ranking` output.
func Format(entries []Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-16s %-12s %s\n", "Rank", "Team", "Runtime", "Accuracy")
	for _, e := range entries {
		name := e.Team
		if e.Mine {
			name += " (you)"
		}
		fmt.Fprintf(&b, "%-6d %-16s %-12s %.4f\n", e.Rank, name, formatRuntime(e.Runtime), e.Accuracy)
	}
	return b.String()
}

func formatRuntime(d time.Duration) string {
	if d >= time.Minute {
		return fmt.Sprintf("%dm%04.1fs", int(d.Minutes()), d.Seconds()-60*float64(int(d.Minutes())))
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// HistogramBin is one bar of the Figure 2 histogram.
type HistogramBin struct {
	// Lo and Hi bound the bin in seconds: [Lo, Hi).
	Lo, Hi float64
	Count  int
}

// Histogram bins the top-N team runtimes into width-second quanta
// ("Each bin in the histogram is 0.1 second interval", Figure 2).
func (l *Leaderboard) Histogram(ctx context.Context, topN int, width float64) ([]HistogramBin, error) {
	rows, err := l.load(ctx)
	if err != nil {
		return nil, err
	}
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	if len(rows) == 0 {
		return nil, nil
	}
	maxRT := rows[len(rows)-1].Runtime
	nBins := int(math.Floor(maxRT/width)) + 1
	bins := make([]HistogramBin, nBins)
	for i := range bins {
		bins[i].Lo = float64(i) * width
		bins[i].Hi = float64(i+1) * width
	}
	for _, r := range rows {
		idx := int(math.Floor(r.Runtime / width))
		if idx >= nBins {
			idx = nBins - 1
		}
		bins[idx].Count++
	}
	return bins, nil
}

// FormatHistogram renders non-empty bins as ASCII bars.
func FormatHistogram(bins []HistogramBin) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s\n", "Runtime bin", "Teams")
	for _, bin := range bins {
		if bin.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%5.1f,%5.1f)  %-5d %s\n", bin.Lo, bin.Hi, bin.Count, strings.Repeat("#", bin.Count))
	}
	return b.String()
}
