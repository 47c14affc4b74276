package main

import (
	"testing"

	"rai/internal/daemon/daemontest"
)

var lifecycle = daemontest.Case{Service: "raibroker", Run: run, Args: []string{"-addr", "127.0.0.1:0"}}

func TestVersionFlag(t *testing.T) { daemontest.Version(t, lifecycle) }

// TestReadyFile serves the broker with -addr :0 and checks the ready
// file reports the bound ports, then the stop sequence.
func TestReadyFile(t *testing.T) { daemontest.Serve(t, lifecycle) }
