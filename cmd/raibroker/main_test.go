package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rai/internal/brokerd"
	"rai/internal/daemon"
	"rai/internal/netx"
)

func TestDaemonServesAndShutsDown(t *testing.T) {
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	// A real client can publish and subscribe through the daemon.
	ctx := context.Background()
	pub, err := brokerd.NewQueue(ctx, addr, netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := pub.Subscribe(ctx, "rai", "tasks", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := pub.Publish(ctx, "rai", []byte("job")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.C():
		if string(d.Body) != "job" {
			t.Fatalf("delivery = %q", d.Body)
		}
		sub.Ack(ctx, d)
	case <-time.After(3 * time.Second):
		t.Fatal("no delivery through daemon")
	}
	close(quit)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb, daemon.Hooks{}); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &out, &errb, daemon.Hooks{}); code != 1 {
		t.Fatalf("bad addr exit = %d", code)
	}
}
