package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so output is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeSeries(bw, f, f.series[k])
		}
		f.mu.Unlock()
	}
	return bw.Flush()
}

func writeSeries(w io.Writer, f *family, s *series) {
	if f.kind == kindHistogram {
		_ = s.hist.Snapshot().write(w, f.name, s.labels)
		return
	}
	v := math.Float64frombits(s.bits.Load())
	if s.fn != nil {
		v = s.fn()
	}
	fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.labels), formatFloat(v))
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func withLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics (any path it is mounted
// on). Safe on a nil registry (serves an empty document).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WritePrometheus(w)
	})
}

// ServeMetrics binds addr and serves the registry at GET /metrics in
// the background — the implementation behind the daemons' -metrics-addr
// flag. Extra mounts (health probes, pprof behind -pprof) are applied
// to the same debug mux. It returns the bound address (useful
// with ":0" in tests) and a close func. Daemons with telemetry disabled
// simply never call it.
func (r *Registry) ServeMetrics(addr string, mounts ...func(*http.ServeMux)) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	for _, m := range mounts {
		if m != nil {
			m(mux)
		}
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Snapshot is a parsed exposition document, as scraped by raiadmin top.
type Snapshot struct {
	Samples []Sample
}

// Value finds a sample by name and exact label set.
func (s *Snapshot) Value(name string, labels ...Label) (float64, bool) {
	want := renderLabels(labels)
	for _, smp := range s.Samples {
		if smp.Name != name {
			continue
		}
		ls := make([]Label, 0, len(smp.Labels))
		for k, v := range smp.Labels {
			ls = append(ls, Label{k, v})
		}
		if renderLabels(ls) == want {
			return smp.Value, true
		}
	}
	return 0, false
}

// ScrapeTimeout bounds one Scrape, so an endpoint that accepts the
// connection and never answers costs this long, not forever.
const ScrapeTimeout = 5 * time.Second

// Scrape fetches one metrics endpoint and parses its exposition, giving
// up after ScrapeTimeout or when ctx ends.
func Scrape(ctx context.Context, url string) (*Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return ParseText(resp.Body)
}

// ParseText parses a Prometheus text-format document. It understands
// the subset WritePrometheus emits (plus arbitrary label order), which
// is all the admin tooling needs.
func ParseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		smp, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		snap.Samples = append(snap.Samples, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func parseSample(line string) (Sample, error) {
	smp := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return smp, fmt.Errorf("telemetry: malformed sample %q", line)
	} else if rest[i] == '{' {
		smp.Name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return smp, fmt.Errorf("telemetry: unterminated labels in %q", line)
		}
		if err := parseLabels(rest[i+1:end], smp.Labels); err != nil {
			return smp, fmt.Errorf("telemetry: %v in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		smp.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	// Value is the first field; an optional timestamp may follow.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return smp, fmt.Errorf("telemetry: bad value in %q: %v", line, err)
	}
	smp.Value = v
	return smp, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("missing = in labels")
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if s[i] == '"' {
				break
			}
			b.WriteByte(s[i])
		}
		if i == len(s) {
			return fmt.Errorf("unterminated label value")
		}
		into[key] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}
