package main

import (
	"testing"

	"rai/internal/daemon/daemontest"
)

func TestLifecycle(t *testing.T) {
	daemontest.Check(t, daemontest.Case{Service: "raifs", Run: run, Args: []string{"-addr", "127.0.0.1:0"}})
}
