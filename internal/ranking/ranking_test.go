package ranking

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/docstore"
)

func seed(t *testing.T, rows []docstore.M) *Leaderboard {
	t.Helper()
	db := docstore.New()
	for _, r := range rows {
		if _, err := db.Insert(context.Background(), Collection, r); err != nil {
			t.Fatal(err)
		}
	}
	return &Leaderboard{DB: db}
}

func classOf4(t *testing.T) *Leaderboard {
	return seed(t, []docstore.M{
		{"team": "cobra", "runtime_s": 0.61, "accuracy": 0.97},
		{"team": "adder", "runtime_s": 0.44, "accuracy": 0.99},
		{"team": "viper", "runtime_s": 121.0, "accuracy": 0.95},
		{"team": "mamba", "runtime_s": 0.92, "accuracy": 0.96},
	})
}

func TestInstructorViewSortedRealNames(t *testing.T) {
	lb := classOf4(t)
	entries, err := lb.View(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"adder", "cobra", "mamba", "viper"}
	for i, w := range wantOrder {
		if entries[i].Team != w || entries[i].Rank != i+1 {
			t.Fatalf("entries = %+v", entries)
		}
	}
}

func TestStudentViewAnonymized(t *testing.T) {
	lb := classOf4(t)
	entries, err := lb.View(context.Background(), "mamba")
	if err != nil {
		t.Fatal(err)
	}
	if entries[2].Team != "mamba" || !entries[2].Mine {
		t.Fatalf("own team not visible: %+v", entries[2])
	}
	for i, e := range entries {
		if i == 2 {
			continue
		}
		if e.Mine || !strings.HasPrefix(e.Team, "Team #") {
			t.Fatalf("other team not anonymized: %+v", e)
		}
	}
}

func TestRankOf(t *testing.T) {
	lb := classOf4(t)
	rank, total, err := lb.RankOf(context.Background(), "cobra")
	if err != nil || rank != 2 || total != 4 {
		t.Fatalf("RankOf = %d/%d, %v", rank, total, err)
	}
	if _, _, err := lb.RankOf(context.Background(), "ghost"); !errors.Is(err, ErrNoSubmission) {
		t.Fatalf("missing team: %v", err)
	}
}

func TestMinAccuracyFilter(t *testing.T) {
	lb := classOf4(t)
	lb.MinAccuracy = 0.96
	entries, err := lb.View(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("filtered entries = %+v (viper at 0.95 must be excluded)", entries)
	}
	for _, e := range entries {
		if e.Team == "viper" {
			t.Error("below-target team still ranked")
		}
	}
}

func TestHistogramPaperBins(t *testing.T) {
	// Reconstruct the Figure 2 shape: 5 teams in [0.4,0.5), most under
	// 1s, one 2-minute straggler.
	var rows []docstore.M
	for i := 0; i < 5; i++ {
		rows = append(rows, docstore.M{"team": fmt.Sprintf("t4%d", i), "runtime_s": 0.41 + 0.015*float64(i), "accuracy": 1.0})
	}
	rows = append(rows,
		docstore.M{"team": "t-a", "runtime_s": 0.55, "accuracy": 1.0},
		docstore.M{"team": "t-b", "runtime_s": 0.78, "accuracy": 1.0},
		docstore.M{"team": "t-slow", "runtime_s": 120.0, "accuracy": 1.0},
	)
	lb := seed(t, rows)
	bins, err := lb.Histogram(context.Background(), 30, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var bin04 *HistogramBin
	for i := range bins {
		if bins[i].Lo == 0.4 {
			bin04 = &bins[i]
		}
	}
	if bin04 == nil || bin04.Count != 5 {
		t.Fatalf("bin [0.4,0.5) = %+v, want 5 teams (Figure 2's example)", bin04)
	}
	// Total count preserved.
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != len(rows) {
		t.Errorf("histogram total = %d, want %d", total, len(rows))
	}
	text := FormatHistogram(bins)
	if !strings.Contains(text, "#####") {
		t.Errorf("ASCII bars missing:\n%s", text)
	}
}

func TestHistogramTopNOnly(t *testing.T) {
	var rows []docstore.M
	for i := 0; i < 58; i++ {
		rows = append(rows, docstore.M{"team": fmt.Sprintf("team%02d", i), "runtime_s": 0.4 + float64(i)*0.1, "accuracy": 1.0})
	}
	lb := seed(t, rows)
	bins, err := lb.Histogram(context.Background(), 30, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 30 {
		t.Errorf("top-30 histogram counted %d teams", total)
	}
}

func TestHistogramEmpty(t *testing.T) {
	lb := seed(t, nil)
	bins, err := lb.Histogram(context.Background(), 30, 0.1)
	if err != nil || bins != nil {
		t.Fatalf("empty = %v, %v", bins, err)
	}
}

func TestFormatRuntime(t *testing.T) {
	entries := []Entry{
		{Rank: 1, Team: "fast", Runtime: 440 * time.Millisecond, Accuracy: 1},
		{Rank: 2, Team: "slow", Runtime: 2 * time.Minute, Accuracy: 1, Mine: true},
	}
	text := Format(entries)
	if !strings.Contains(text, "0.440s") {
		t.Errorf("sub-minute formatting:\n%s", text)
	}
	if !strings.Contains(text, "2m00.0s") {
		t.Errorf("minute formatting:\n%s", text)
	}
	if !strings.Contains(text, "slow (you)") {
		t.Errorf("own-team marker:\n%s", text)
	}
}

func TestRecomputeInvariant(t *testing.T) {
	lb := classOf4(t)
	if _, err := lb.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After a rerun updates a timing (overwrite semantics), recompute
	// reflects the new order.
	lb.DB.Update(context.Background(), Collection, docstore.M{"team": "viper"}, docstore.M{"$set": docstore.M{"runtime_s": 0.30}})
	entries, err := lb.Recompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Team != "viper" {
		t.Fatalf("recomputed head = %+v", entries[0])
	}
}

// TestViewHonorsCancellation: Ctrl-C in `rai ranking` reaches the
// database call — a View stuck on a server that never answers returns
// context.Canceled as soon as its ctx is cancelled.
func TestViewHonorsCancellation(t *testing.T) {
	hung := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-hung:
		}
	}))
	defer srv.Close()
	defer close(hung)
	lb := &Leaderboard{DB: docstore.NewClient(srv.URL)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := lb.View(ctx, "")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the server
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("View = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("View outlived its cancelled ctx")
	}
}
