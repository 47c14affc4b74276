package slo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rai/internal/telemetry"
)

// Scrape fetches every metrics URL, parses the expositions, and folds
// one Observe round into the engine. Endpoints that fail are skipped —
// a worker mid-restart must not blind the whole evaluation — and the
// joined error reports them. It returns how many endpoints were
// observed: an all-endpoints-down round observes nothing (the history
// keeps its last reading) rather than recording a false zero.
func (e *Engine) Scrape(ctx context.Context, urls []string) (int, error) {
	var snaps []*telemetry.Snapshot
	var errs []error
	for _, u := range urls {
		snap, err := telemetry.Scrape(ctx, u)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", u, err))
			continue
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) > 0 {
		e.Observe(snaps...)
	}
	return len(snaps), errors.Join(errs...)
}

// Run scrapes the URLs every interval until ctx is done, reporting
// scrape failures to onErr (nil to ignore). The engine clock paces the
// loop, so tests drive it with a virtual clock.
func (e *Engine) Run(ctx context.Context, urls []string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.clk.After(interval):
			if _, err := e.Scrape(ctx, urls); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}
}
