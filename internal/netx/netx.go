// Package netx is the stdlib-only resilience layer every RAI service
// boundary goes through: bounded retries with exponential backoff and
// full jitter, per-attempt deadlines, and a retryable-error
// taxonomy. The paper's deployment leaned on NSQ, S3, and MongoDB client
// libraries that reconnect and retry internally; our substitutes
// (brokerd, objstore, docstore) get the same durability from this one
// package, so a dropped TCP connection costs a submission a short delay
// instead of the whole job.
//
// The entry points are Do and DoVal: they run an operation under a
// Policy, classifying each failure, sleeping between attempts on the
// policy's clock (virtual in simulations), and aborting promptly when
// the caller's context is done. Telemetry rides along through Metrics:
// every retry, reconnect, and blown deadline lands on rai_rpc_* counters
// that raiadmin top surfaces.
package netx

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"rai/internal/clock"
)

// Defaults applied by Policy.withDefaults for zero fields.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 5 * time.Second
)

// Policy shapes how Do runs an operation. The zero value is usable and
// means "4 attempts, 50ms..5s full-jitter backoff, no per-attempt
// deadline beyond the caller's context".
type Policy struct {
	// MaxAttempts bounds total tries (first attempt included); <=0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff cap before the first retry; it doubles
	// per attempt up to MaxDelay. The actual sleep is uniformly random
	// in [0, cap) ("full jitter"), which de-synchronizes a worker fleet
	// hammering a recovering broker.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth; <=0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// PerAttempt, when positive, derives a child deadline for each
	// attempt so one stuck TCP connection cannot absorb the whole
	// budget. A per-attempt deadline blowing is retryable; the caller's
	// context expiring is not.
	PerAttempt time.Duration
	// Retryable classifies errors; nil means DefaultRetryable.
	Retryable func(error) bool
	// Clock times the backoff sleeps (virtual in simulations); nil means
	// the wall clock. Per-attempt deadlines always use real time
	// because context deadlines do.
	Clock clock.Clock
	// Rand yields the jitter fraction in [0,1); nil means math/rand.
	// Tests inject a constant for determinism.
	Rand func() float64
	// OnRetry, when set, observes each scheduled retry (attempt is the
	// 1-based attempt that just failed).
	OnRetry func(attempt int, delay time.Duration, err error)
	// Metrics, when set, counts retries and blown deadlines. Nil-safe.
	Metrics *Metrics
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
	if p.Clock == nil {
		p.Clock = clock.Real{}
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Delay returns the backoff sleep scheduled after the given 1-based
// failed attempt: uniform in [0, min(MaxDelay, BaseDelay<<(attempt-1))).
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	cap := p.BaseDelay
	for i := 1; i < attempt && cap < p.MaxDelay; i++ {
		cap *= 2
	}
	if cap > p.MaxDelay {
		cap = p.MaxDelay
	}
	return time.Duration(p.Rand() * float64(cap))
}

// Do runs op under p, retrying retryable failures with jittered backoff
// until success, attempt exhaustion, a non-retryable error, or ctx
// cancellation — whichever comes first. op receives a context carrying
// the per-attempt deadline (when configured) and must honor it.
func Do(ctx context.Context, p Policy, op func(context.Context) error) error {
	p = p.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return p.ctxFailure(err, lastErr)
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttempt > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		err := op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		// The caller's deadline expiring ends the
		// call even if the error itself looks retryable.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return p.ctxFailure(ctxErr, err)
		}
		if attempt >= p.MaxAttempts || !p.Retryable(err) {
			return err
		}
		delay := p.Delay(attempt)
		p.Metrics.retry()
		if p.OnRetry != nil {
			p.OnRetry(attempt, delay, err)
		}
		select {
		case <-p.Clock.After(delay):
		case <-ctx.Done():
			return p.ctxFailure(ctx.Err(), err)
		}
	}
}

// ctxFailure folds the context error together with the last attempt's
// error (both remain visible to errors.Is/As) and counts blown
// deadlines.
func (p Policy) ctxFailure(ctxErr, lastErr error) error {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		p.Metrics.deadline()
	}
	if lastErr == nil || errors.Is(lastErr, ctxErr) {
		return ctxErr
	}
	return errors.Join(ctxErr, lastErr)
}

// DoVal is Do for operations that produce a value.
func DoVal[T any](ctx context.Context, p Policy, op func(context.Context) (T, error)) (T, error) {
	var out T
	err := Do(ctx, p, func(ctx context.Context) error {
		v, err := op(ctx)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}
