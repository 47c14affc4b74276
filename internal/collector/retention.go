package collector

// Retention sweep: the traces and events collections are append-only
// under load, and nothing deleted them before this — the collector's
// own storage was the one unbounded buffer left in the pipeline. The
// sweep deletes documents whose time field has fallen behind the
// retention horizon, using the float unix-second fields persistSpan
// and persistEvent already write for range queries.

import (
	"context"
	"fmt"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

// RetentionConfig tunes the TTL sweep. The zero value disables it.
type RetentionConfig struct {
	// Retain is how long traces and events are kept. Zero disables the
	// sweep (the pre-PR-8 unbounded behavior, for archival deployments
	// that sweep externally).
	Retain time.Duration
	// Interval is the sweep period (default Retain/12, clamped to
	// [1 minute, 1 hour]). Small intervals are honored exactly, which
	// tests rely on.
	Interval time.Duration
}

func (c RetentionConfig) withDefaults() RetentionConfig {
	if c.Retain <= 0 {
		return c
	}
	if c.Interval <= 0 {
		c.Interval = c.Retain / 12
		if c.Interval < time.Minute {
			c.Interval = time.Minute
		}
		if c.Interval > time.Hour {
			c.Interval = time.Hour
		}
	}
	return c
}

// RunRetention sweeps expired telemetry until ctx is done. It is a
// no-op (returns immediately) when cfg.Retain is zero. Run it in its
// own goroutine alongside Run.
func (c *Collector) RunRetention(ctx context.Context, cfg RetentionConfig) {
	cfg = cfg.withDefaults()
	if cfg.Retain <= 0 {
		return
	}
	clk := c.clock()
	deleted := map[string]*telemetry.Counter{}
	for _, coll := range []string{core.CollTraces, core.CollEvents} {
		deleted[coll] = c.Telemetry.Counter("rai_collector_retention_deleted_total",
			"telemetry documents deleted by the TTL sweep", telemetry.L("coll", coll))
	}
	sweeps := c.Telemetry.Counter("rai_collector_retention_sweeps_total", "TTL sweep passes completed")
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(cfg.Interval):
			cutoff := unixSeconds(clk.Now().Add(-cfg.Retain))
			for coll, field := range map[string]string{core.CollTraces: "start_s", core.CollEvents: "ts_s"} {
				n, err := c.SweepExpired(ctx, coll, field, cutoff)
				if err != nil {
					c.Log.Warn(ctx, "retention sweep failed",
						telemetry.L("coll", coll), telemetry.L("error", err.Error()))
					continue
				}
				deleted[coll].Add(float64(n))
			}
			sweeps.Inc()
		}
	}
}

// SweepExpired deletes documents in coll whose field predates cutoff
// (float unix seconds) and reports how many went away.
func (c *Collector) SweepExpired(ctx context.Context, coll, field string, cutoff float64) (int, error) {
	filter := docstore.M{field: docstore.M{"$lt": cutoff}}
	n, err := c.DB.Delete(ctx, coll, filter)
	if err != nil {
		return 0, fmt.Errorf("collector: sweeping %s: %w", coll, err)
	}
	return n, nil
}
