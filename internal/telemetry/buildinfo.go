package telemetry

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rai/internal/clock"
)

// Stamp identifies exactly what build of a daemon produced a metric. It
// is what `-version` prints and what rai_build_info exposes, so a
// number can be traced back to the commit that produced it.
type Stamp struct {
	Service   string `json:"service"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	VCSRef    string `json:"vcs_ref"`
}

// NewStamp builds a Stamp for the running binary. The VCS ref comes
// from the vcs.revision/vcs.modified build settings that the go tool
// embeds when building inside a repository; outside one it is "unknown".
func NewStamp(service, version string) Stamp {
	s := Stamp{
		Service:   service,
		Version:   version,
		GoVersion: runtime.Version(),
		VCSRef:    "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev != "" {
			s.VCSRef = rev
			if modified == "true" {
				s.VCSRef += "+dirty"
			}
		}
	}
	return s
}

// String renders the stamp the way `-version` prints it.
func (s Stamp) String() string {
	return fmt.Sprintf("%s %s (%s, vcs %s)", s.Service, s.Version, s.GoVersion, s.VCSRef)
}

// RegisterBuildInfo publishes the process identity metrics every daemon
// exposes:
//
//	rai_build_info{service,version,goversion,vcsref} 1
//	rai_process_start_time_seconds <unix seconds>
//
// The build-info value is always 1 — the information is in the labels,
// following the Prometheus *_info convention — and the start time lets
// raiadmin top derive uptime from a plain scrape.
//
// clk supplies the start timestamp; nil uses the wall clock.
func RegisterBuildInfo(r *Registry, service, version string, clk clock.Clock) {
	if r == nil {
		return
	}
	if clk == nil {
		clk = clock.Real{}
	}
	stamp := NewStamp(service, version)
	r.Gauge("rai_build_info",
		"build identity of the process; value is always 1",
		L("service", stamp.Service),
		L("version", stamp.Version),
		L("goversion", stamp.GoVersion),
		L("vcsref", stamp.VCSRef),
	).Set(1)
	start := float64(clk.Now().UnixNano()) / float64(time.Second)
	r.Gauge("rai_process_start_time_seconds",
		"unix time the process registered its metrics, in seconds").Set(start)
}
