package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"rai/internal/clock"
	"rai/internal/objstore"
	"rai/internal/telemetry"
)

// The fs-smoke check is the streaming storage layer's canary: it boots
// a real raifs on the disk backend, pushes a synthetic project archive
// through the streamed PUT/GET paths, doubles the archive, and asserts
// the daemon's resident set stays flat. A regression that reintroduces
// whole-object buffering (an io.ReadAll on the request path, a []byte
// staging area in a backend) shows up as RSS tracking the archive size
// and fails the run.

// FSSmokeConfig configures one smoke run.
type FSSmokeConfig struct {
	// Bin is the raifs binary path.
	Bin string
	// Dir is the scratch directory (object root, ready file, log).
	Dir string
	// BaseBytes is the first archive's size; the second upload doubles
	// it. Default 32 MiB.
	BaseBytes int64
	// GrowthAllowance is the RSS growth tolerated between the 1× and 2×
	// uploads. Default BaseBytes/2: real streaming stays within noise,
	// whole-object buffering overshoots by at least BaseBytes.
	GrowthAllowance int64
	// ReadyTimeout bounds the daemon's boot (default 30 s).
	ReadyTimeout time.Duration
}

// FSSmokeResult reports the observed trajectory.
type FSSmokeResult struct {
	BaseBytes   int64   `json:"base_bytes"`
	DoubleBytes int64   `json:"double_bytes"`
	RSSAfter1x  float64 `json:"rss_after_1x_bytes"`
	RSSAfter2x  float64 `json:"rss_after_2x_bytes"`
	Growth      float64 `json:"growth_bytes"`
	Allowance   int64   `json:"allowance_bytes"`
	Flat        bool    `json:"flat"`
}

func (r *FSSmokeResult) String() string {
	verdict := "FLAT"
	if !r.Flat {
		verdict = "GREW"
	}
	return fmt.Sprintf("fs-smoke: rss %.1f MiB after %d MiB upload, %.1f MiB after %d MiB upload (Δ %.1f MiB, allowance %d MiB): %s",
		r.RSSAfter1x/(1<<20), r.BaseBytes>>20, r.RSSAfter2x/(1<<20), r.DoubleBytes>>20,
		r.Growth/(1<<20), r.Allowance>>20, verdict)
}

// FSSmoke runs the check. It returns the measured result even when the
// flat-memory assertion fails (Flat reports the verdict); the error is
// reserved for harness problems (boot, upload, scrape).
func FSSmoke(ctx context.Context, clk clock.Clock, cfg FSSmokeConfig, logTo io.Writer) (*FSSmokeResult, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.BaseBytes <= 0 {
		cfg.BaseBytes = 32 << 20
	}
	if cfg.GrowthAllowance <= 0 {
		cfg.GrowthAllowance = cfg.BaseBytes / 2
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	readyPath := filepath.Join(cfg.Dir, "raifs.ready")
	p, err := startProc("raifs", cfg.Bin, []string{
		"-addr", "127.0.0.1:0",
		"-store-root", filepath.Join(cfg.Dir, "objects"),
		"-metrics-addr", "127.0.0.1:0",
		"-ready-file", readyPath,
	}, cfg.Dir)
	if err != nil {
		return nil, err
	}
	defer p.Stop(clk, 5*time.Second)
	info, err := awaitReady(ctx, clk, p, readyPath, cfg.ReadyTimeout)
	if err != nil {
		return nil, err
	}
	metricsURL := "http://" + info.MetricsAddr + "/metrics"
	client := objstore.NewClient("http://" + info.Addr)

	res := &FSSmokeResult{BaseBytes: cfg.BaseBytes, DoubleBytes: 2 * cfg.BaseBytes, Allowance: cfg.GrowthAllowance}
	roundTrip := func(key string, size int64) error {
		if err := client.PutReader(ctx, "bench", key, &patternReader{size: size}, size, 0); err != nil {
			return fmt.Errorf("bench: uploading %s: %w", key, err)
		}
		rc, _, err := client.GetReader(ctx, "bench", key)
		if err != nil {
			return fmt.Errorf("bench: downloading %s: %w", key, err)
		}
		n, err := io.Copy(io.Discard, rc)
		rc.Close()
		if err != nil {
			return fmt.Errorf("bench: streaming %s: %w", key, err)
		}
		if n != size {
			return fmt.Errorf("bench: %s round-trip: got %d bytes, want %d", key, n, size)
		}
		return nil
	}

	fmt.Fprintf(logTo, "fs-smoke: round-tripping %d MiB archive\n", cfg.BaseBytes>>20)
	if err := roundTrip("archive-1x", cfg.BaseBytes); err != nil {
		return nil, err
	}
	if res.RSSAfter1x, err = scrapeRSS(ctx, metricsURL); err != nil {
		return nil, err
	}
	fmt.Fprintf(logTo, "fs-smoke: round-tripping %d MiB archive\n", res.DoubleBytes>>20)
	if err := roundTrip("archive-2x", res.DoubleBytes); err != nil {
		return nil, err
	}
	if res.RSSAfter2x, err = scrapeRSS(ctx, metricsURL); err != nil {
		return nil, err
	}
	res.Growth = res.RSSAfter2x - res.RSSAfter1x
	res.Flat = res.Growth <= float64(cfg.GrowthAllowance)
	return res, nil
}

// scrapeRSS pulls rai_process_resident_bytes from a /metrics endpoint.
func scrapeRSS(ctx context.Context, url string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bench: scraping %s: status %s", url, resp.Status)
	}
	snap, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return 0, err
	}
	rss, ok := snap.Value("rai_process_resident_bytes")
	if !ok {
		return 0, fmt.Errorf("bench: %s exposes no rai_process_resident_bytes", url)
	}
	return rss, nil
}

// patternReader yields size bytes of a cheap deterministic pattern
// without holding them; Seek support lets the upload client rewind for
// retries.
type patternReader struct {
	size, off int64
}

func (p *patternReader) Read(b []byte) (int, error) {
	if p.off >= p.size {
		return 0, io.EOF
	}
	n := len(b)
	if rem := p.size - p.off; int64(n) > rem {
		n = int(rem)
	}
	for i := 0; i < n; i++ {
		b[i] = byte((p.off + int64(i)) * 31)
	}
	p.off += int64(n)
	return n, nil
}

func (p *patternReader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		p.off = offset
	case io.SeekCurrent:
		p.off += offset
	case io.SeekEnd:
		p.off = p.size + offset
	default:
		return 0, fmt.Errorf("bench: bad whence %d", whence)
	}
	if p.off < 0 {
		return 0, fmt.Errorf("bench: negative offset")
	}
	return p.off, nil
}
