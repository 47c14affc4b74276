package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
// flag. Extra mounts (e.g. MountPprof behind the -pprof flag) are
// applied to the same debug mux. It returns the bound address (useful
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
	// Exemplar carries the OpenMetrics-style exemplar suffix of a
	// histogram bucket line, when present.
	Exemplar *SampleExemplar
}

// SampleExemplar is a parsed `# {labels} value` exemplar suffix.
type SampleExemplar struct {
	Labels map[string]string
	Value  float64
}

// TraceID is the exemplar's trace link ("" when absent).
func (e *SampleExemplar) TraceID() string {
	if e == nil {
		return ""
	}
	return e.Labels["trace_id"]
}

// Snapshot is a parsed exposition document, as scraped by raiadmin top.
type Snapshot struct {
	Samples []Sample
	types   map[string]string
}

// Type reports the declared TYPE of a family ("counter", "gauge",
// "histogram"), or "" if the scrape carried no declaration.
func (s *Snapshot) Type(name string) string { return s.types[name] }

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

// ParseText parses a Prometheus text-format document. It understands
// the subset WritePrometheus emits (plus arbitrary label order), which
// is all the admin tooling needs.
func ParseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				snap.types[fields[2]] = fields[3]
			}
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
	// Split off an OpenMetrics exemplar suffix (` # {...} value`) before
	// label parsing, so the exemplar's braces don't confuse the
	// LastIndex scan below.
	if i := strings.Index(rest, " # "); i >= 0 {
		ex, err := parseExemplar(strings.TrimSpace(rest[i+3:]))
		if err != nil {
			return smp, fmt.Errorf("telemetry: %v in %q", err, line)
		}
		smp.Exemplar = ex
		rest = strings.TrimSpace(rest[:i])
	}
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

func parseExemplar(s string) (*SampleExemplar, error) {
	if len(s) == 0 || s[0] != '{' {
		return nil, fmt.Errorf("malformed exemplar %q", s)
	}
	end := strings.IndexByte(s, '}')
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar labels in %q", s)
	}
	ex := &SampleExemplar{Labels: map[string]string{}}
	if err := parseLabels(s[1:end], ex.Labels); err != nil {
		return nil, err
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) == 0 {
		return nil, fmt.Errorf("exemplar %q has no value", s)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value: %v", err)
	}
	ex.Value = v
	return ex, nil
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
