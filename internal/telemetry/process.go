package telemetry

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// RegisterProcessMetrics publishes the runtime-health gauges the
// macro-benchmark harness samples from every daemon while under load:
//
//	rai_process_goroutines        current goroutine count
//	rai_process_heap_bytes        bytes of allocated heap objects
//	rai_process_gc_cycles_total   completed GC cycles
//	rai_process_resident_bytes    resident set size (0 where /proc is absent)
//
// All four are GaugeFuncs, so each scrape reads the live value; nothing
// ticks in the background and there is no goroutine to shut down.
func RegisterProcessMetrics(r *Registry) {
	r.GaugeFunc("rai_process_goroutines",
		"number of live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("rai_process_heap_bytes",
		"bytes of allocated heap objects",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	r.GaugeFunc("rai_process_gc_cycles_total",
		"completed GC cycles since process start",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.NumGC)
		})
	r.GaugeFunc("rai_process_resident_bytes",
		"resident set size in bytes; 0 where /proc/self/statm is unavailable",
		func() float64 { return float64(residentBytes()) })
}

// residentBytes reads the RSS from /proc/self/statm (second field, in
// pages). Platforms without procfs report 0 rather than erroring: the
// bench report treats 0 as "not measured".
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
