package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/netx"
	"rai/internal/project"
	"rai/internal/vfs"
)

// projectWith renders the course project for team plus extra files.
func projectWith(t *testing.T, team string, extra map[string][]byte) tree {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", project.Spec{Impl: cnn.ImplIm2col, Team: team}); err != nil {
		t.Fatal(err)
	}
	for name, data := range extra {
		fs.WriteFile("/p/"+name, data)
	}
	m, src, err := cas.Build(fs.IOFS("/p"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree{m, src}
}

// TestClientPrintsJobOutputExactly pins the bytes a student's terminal
// gets: stdout, stderr and the worker's lines in the order written, one
// newline after each, and one added after a command's unterminated last
// line.
func TestClientPrintsJobOutputExactly(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-bytes")
	spec, err := build.Parse([]byte(`rai:
  version: 0.1
  image: webgpu/rai:root
  commands:
    build:
      - echo "Building project"
      - cat /src/notes.txt
      - cat /src/missing.txt
`))
	if err != nil {
		t.Fatal(err)
	}
	proj := projectWith(t, "team-bytes", map[string][]byte{"notes.txt": []byte("one\n\ntwo ünïcode\nno newline")})
	res, err := submitAndHandle(t, e, c, KindRun, spec, proj)
	if err != nil {
		t.Fatal(err)
	}
	want := `$ echo "Building project"
Building project
$ cat /src/notes.txt
one

two ünïcode
no newline
$ cat /src/missing.txt
cat: /src/missing.txt: file does not exist
command failed (exit 1)
build directory uploaded to rai-builds/team-bytes/` + res.JobID + `/build.tar.bz2
`
	if got := c.Stdout.(*bytes.Buffer).String(); got != want {
		t.Fatalf("terminal got:\n%q\nwant:\n%q", got, want)
	}
	if res.LogLines != strings.Count(want, "\n") {
		t.Errorf("LogLines = %d, want %d", res.LogLines, strings.Count(want, "\n"))
	}
}

// TestLongLineReachesClientOverTCP: a 20 MiB line with no newline — cat
// of an uploaded file — is more than one brokerd frame may carry; cut
// across batches, it reaches the client whole.
func TestLongLineReachesClientOverTCP(t *testing.T) {
	e := newEnv(t)
	b := broker.New()
	srv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	queue := func() broker.Queue {
		q, err := brokerd.NewQueue(context.Background(), srv.Addr(), netx.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		return q
	}
	e.worker.Queue = queue()
	e.worker.Cfg.RateLimit = 0
	go e.worker.Run(context.Background())
	t.Cleanup(e.worker.Stop)
	c := e.client(t, "team-long")
	c.Queue = queue()

	line := bytes.Repeat([]byte("0123456789abcdef"), 20<<20/16)
	spec, err := build.Parse([]byte("rai:\n  version: 0.1\n  image: webgpu/rai:root\n  commands:\n    build:\n      - cat /src/big.txt\n"))
	if err != nil {
		t.Fatal(err)
	}
	proj := projectWith(t, "team-long", map[string][]byte{"big.txt": line})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Submit(ctx, KindRun, spec, proj.m, proj.src)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Stdout.(*bytes.Buffer).Bytes()
	if !bytes.Contains(out, append(append([]byte("$ cat /src/big.txt\n"), line...), '\n')) {
		t.Fatalf("the %d-byte line did not arrive whole: the client printed %d bytes", len(line), len(out))
	}
	if res.Status != StatusSucceeded || res.LogLines != 3 {
		t.Fatalf("status %s, %d lines", res.Status, res.LogLines)
	}
}
