// Package daemontest is the one lifecycle check each daemon's tests run
// on it: the -version stamp, the ready file, rai_build_info, /readyz
// while serving and once stopping begins, and a clean exit.
package daemontest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/clock"
	"rai/internal/daemon"
	"rai/internal/telemetry"
)

// Case is one daemon: its run function (main's body with the test
// hooks) and the flags it needs to serve, beside -metrics-addr and
// -ready-file.
type Case struct {
	Service string // the ready file's and rai_build_info's service
	Stamp   string // the name -version prints; "" means Service
	Run     func(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int
	Args    []string
}

const wait = 20 * time.Second // per step; the worker builds its data volume first

// Check runs c through Version, then Serve.
func Check(t *testing.T, c Case) {
	t.Helper()
	Version(t, c)
	Serve(t, c)
}

// Version checks that -version prints c's stamp and exits 0.
func Version(t *testing.T, c Case) {
	t.Helper()
	stamp := c.Stamp
	if stamp == "" {
		stamp = c.Service
	}
	var vout, verr bytes.Buffer
	if code := c.Run([]string{"-version"}, &vout, &verr, daemon.Hooks{}); code != 0 {
		t.Fatalf("-version exit %d: %s", code, verr.String())
	}
	if want := telemetry.NewStamp(stamp).String() + "\n"; vout.String() != want {
		t.Errorf("-version printed %q, want %q", vout.String(), want)
	}
}

// Serve serves c with -metrics-addr :0 and a ready file, checks the
// ready file, rai_build_info and /readyz, and stops it through the
// Quit hook.
func Serve(t *testing.T, c Case) {
	t.Helper()
	path := filepath.Join(t.TempDir(), c.Service+".ready")
	ready := make(chan string, 1)
	quit := make(chan struct{})
	done := make(chan int, 1)
	var readyURL string
	stopping := -1
	hooks := daemon.Hooks{Ready: ready, Quit: quit, Draining: func() { stopping = status(t, readyURL) }}
	var out, errb bytes.Buffer // read once run has returned
	args := append(append([]string(nil), c.Args...), "-metrics-addr", "127.0.0.1:0", "-ready-file", path)
	go func() { done <- c.Run(args, &out, &errb, hooks) }()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("%s exited %d before it was ready: %s", c.Service, code, errb.String())
	case <-clock.Real{}.After(wait):
		t.Fatalf("%s never ready", c.Service)
	}

	info, err := daemon.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Service != c.Service || info.PID != os.Getpid() || info.Addr != addr ||
		strings.HasSuffix(info.Addr, ":0") || info.MetricsAddr == "" || strings.HasSuffix(info.MetricsAddr, ":0") {
		t.Errorf("ready file %+v: want service %s, this pid, addr %q and bound ports", info, c.Service, addr)
	}
	readyURL = "http://" + info.MetricsAddr + "/readyz"
	if code := status(t, readyURL); code != http.StatusOK {
		t.Errorf("GET /readyz while serving = %d, want 200", code)
	}
	snap, err := telemetry.Scrape(t.Context(), "http://"+info.MetricsAddr+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	st := telemetry.NewStamp(c.Service)
	if v, ok := snap.Value("rai_build_info", telemetry.L("service", st.Service), telemetry.L("version", st.Version),
		telemetry.L("goversion", st.GoVersion), telemetry.L("vcsref", st.VCSRef)); !ok || v != 1 {
		t.Errorf("/metrics has no rai_build_info for %+v", st)
	}

	close(quit)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d after quit: %s", code, errb.String())
		}
	case <-clock.Real{}.After(wait):
		t.Fatalf("%s did not stop", c.Service)
	}
	if stopping != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz once stopping began = %d, want 503", stopping)
	}
	if banner := fmt.Sprintf("%s metrics on http://%s/metrics\n", c.Service, info.MetricsAddr); !strings.Contains(out.String(), banner) {
		t.Errorf("stdout lacks %q:\n%s", banner, out.String())
	}
}

// status is GET url's status code, or 0 when the request fails.
func status(t *testing.T, url string) int {
	resp, err := http.Get(url)
	if err != nil {
		t.Logf("GET %s: %v", url, err)
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
