// Package readyfile implements the daemon readiness handshake the
// macro-benchmark harness (and any parallel test driver) relies on:
// each daemon started with -ready-file writes a small JSON document
// once it is actually serving, carrying the bound addresses (which
// matter when listening on ":0") and its PID. The file appears
// atomically — written to a temp name and renamed — so a reader never
// observes a half-written document.
package readyfile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Info is the document a daemon publishes when it is ready to serve.
type Info struct {
	Service string `json:"service"`
	PID     int    `json:"pid"`
	// Addr is the daemon's primary bound address (empty for daemons
	// without a listener of their own, e.g. raiworker).
	Addr string `json:"addr,omitempty"`
	// MetricsAddr is the bound /metrics address, when enabled.
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// Write publishes info at path atomically: the JSON is written to a
// temporary file in the same directory and renamed into place, so a
// concurrent Read either sees nothing or the complete document.
func Write(path string, info Info) error {
	data, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("readyfile: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ready-*")
	if err != nil {
		return fmt.Errorf("readyfile: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("readyfile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("readyfile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("readyfile: %w", err)
	}
	return nil
}

// Read parses the document at path. A missing file returns the
// underlying fs error so callers can distinguish "not ready yet" from
// "corrupt".
func Read(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	var info Info
	if err := json.Unmarshal(data, &info); err != nil {
		return Info{}, fmt.Errorf("readyfile: parsing %s: %w", path, err)
	}
	return info, nil
}
