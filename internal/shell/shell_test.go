package shell

import (
	"bytes"
	"path"
	"reflect"
	"strings"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/vfs"
)

// containerFS builds the filesystem a worker would assemble: the student
// project mounted at /src, datasets at /data, empty /build.
func containerFS(t *testing.T, spec project.Spec) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/src", spec); err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/build")
	nw := cnn.NewNetwork(408)
	model, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/data/model.hdf5", model)
	small, err := cnn.SynthesizeDataset(nw, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := small.Encode()
	fs.WriteFile("/data/test10.hdf5", blob)
	full, err := cnn.SynthesizeDataset(nw, 11, 20)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = full.Encode()
	fs.WriteFile("/data/testfull.hdf5", blob)
	return fs
}

func newShell(t *testing.T, fs *vfs.FS) (*Shell, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var out, errb bytes.Buffer
	return New(fs, "/build", &out, &errb, nil), &out, &errb
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`echo "Building project"`, []string{"echo", "Building project"}},
		{`cmake /src`, []string{"cmake", "/src"}},
		{`a 'b c' d\ e`, []string{"a", "b c", "d e"}},
		{`  spaced   out  `, []string{"spaced", "out"}},
		{``, nil},
		{`"mixed 'quotes'"`, []string{"mixed 'quotes'"}},
	}
	for _, tc := range cases {
		got, err := Tokenize(tc.in)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{`unterminated "`, `unterminated '`, `trailing \`, `a | b`, `a > f`, `a; b`} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("Tokenize(%q) succeeded", bad)
		}
	}
}

func TestEchoAndUnknownCommand(t *testing.T) {
	sh, out, errb := newShell(t, vfs.New())
	res, err := sh.Run(`echo "Building project"`)
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("echo: %v %+v", err, res)
	}
	if out.String() != "Building project\n" {
		t.Fatalf("stdout = %q", out.String())
	}
	res, err = sh.Run("no-such-tool")
	if err == nil || res.ExitCode != 127 {
		t.Fatalf("unknown command: %v %+v", err, res)
	}
	if !strings.Contains(errb.String(), "command not found") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestListing1PipelineEndToEnd(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col, Team: "t1"})
	sh, out, errb := newShell(t, fs)
	cmds := []string{
		`echo "Building project"`,
		`cmake /src`,
		`make`,
		`./ece408 /data/test10.hdf5 /data/model.hdf5`,
		`nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5`,
	}
	var total time.Duration
	var lastInfer Result
	for _, c := range cmds {
		res, err := sh.Run(c)
		if err != nil {
			t.Fatalf("%q failed: %v\nstderr: %s", c, err, errb.String())
		}
		total += res.Wall
		if res.RanInference {
			lastInfer = res
		}
	}
	if !fs.Exists("/build/ece408") {
		t.Error("make did not produce the target binary")
	}
	if !fs.Exists("/build/timeline.nvprof") {
		t.Error("nvprof did not export the timeline")
	}
	if lastInfer.Accuracy != 1.0 {
		t.Errorf("accuracy = %v, want 1.0 for a correct kernel", lastInfer.Accuracy)
	}
	if !strings.Contains(out.String(), "Correctness: 1.0000") {
		t.Errorf("stdout missing correctness line:\n%s", out.String())
	}
	if total <= 0 {
		t.Error("pipeline consumed no simulated time")
	}
}

func TestMakeRequiresCmake(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplTiled})
	sh, _, errb := newShell(t, fs)
	res, err := sh.Run("make")
	if err == nil || res.ExitCode != 2 {
		t.Fatalf("make without Makefile: %v %+v", err, res)
	}
	if !strings.Contains(errb.String(), "No targets") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestCmakeRequiresCMakeLists(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/src")
	fs.MkdirAll("/build")
	sh, _, errb := newShell(t, fs)
	if _, err := sh.Run("cmake /src"); err == nil {
		t.Fatal("cmake succeeded without CMakeLists.txt")
	}
	if !strings.Contains(errb.String(), "CMakeLists.txt") {
		t.Errorf("stderr = %q", errb.String())
	}
	if _, err := sh.Run("cmake /nonexistent"); err == nil {
		t.Fatal("cmake succeeded on missing dir")
	}
}

func TestCompileErrorFailsBuild(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplTiled, Bug: "compile"})
	sh, _, errb := newShell(t, fs)
	if _, err := sh.Run("cmake /src"); err != nil {
		t.Fatal(err)
	}
	res, err := sh.Run("make")
	if err == nil || res.ExitCode != 2 {
		t.Fatalf("make with compile error: %v %+v", err, res)
	}
	if !strings.Contains(errb.String(), "Error 1") {
		t.Errorf("stderr = %q", errb.String())
	}
	if fs.Exists("/build/ece408") {
		t.Error("binary produced despite compile error")
	}
}

func TestCrashBugExitsNonzero(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col, Bug: "crash"})
	sh, _, errb := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	res, err := sh.Run("./ece408 /data/test10.hdf5 /data/model.hdf5")
	if err == nil || res.ExitCode != 1 {
		t.Fatalf("crash bug: %v %+v", err, res)
	}
	if !strings.Contains(errb.String(), "CUDA error") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestHangBugConsumesLifetime(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col, Bug: "hang"})
	sh, _, _ := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	res, _ := sh.Run("./ece408 /data/test10.hdf5 /data/model.hdf5")
	if res.Wall < 24*time.Hour {
		t.Fatalf("hang consumed only %v; sandbox lifetime limit would never trigger", res.Wall)
	}
}

func TestAccuracyBugDegradesCorrectness(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col, Bug: "accuracy"})
	sh, out, _ := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	res, err := sh.Run("./ece408 /data/test10.hdf5 /data/model.hdf5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy >= 0.9 {
		t.Errorf("buggy kernel accuracy = %v, want visibly degraded", res.Accuracy)
	}
	if !strings.Contains(out.String(), "Correctness: 0.") {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestModeledRuntimeMatchesPaperScale(t *testing.T) {
	// Paper: serial baseline ~30 min on the full dataset; winning
	// optimized kernels ~0.4 s (Figure 2's mode).
	fs := containerFS(t, project.Spec{Impl: cnn.ImplNaiveSerial, Tuning: 1})
	sh, _, _ := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	res, err := sh.Run("./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
	if err != nil {
		t.Fatal(err)
	}
	if res.InternalTimer < 25*time.Minute || res.InternalTimer > 35*time.Minute {
		t.Errorf("serial full-dataset time = %v, want ~30 min", res.InternalTimer)
	}

	fs2 := containerFS(t, project.Spec{Impl: cnn.ImplParallel, Tuning: 1})
	sh2, _, _ := newShell(t, fs2)
	sh2.Run("cmake /src")
	sh2.Run("make")
	res2, err := sh2.Run("./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
	if err != nil {
		t.Fatal(err)
	}
	if res2.InternalTimer < 300*time.Millisecond || res2.InternalTimer > 600*time.Millisecond {
		t.Errorf("optimized full-dataset time = %v, want ~0.4 s", res2.InternalTimer)
	}
}

func TestTuningScalesRuntime(t *testing.T) {
	run := func(tuning float64) time.Duration {
		fs := containerFS(t, project.Spec{Impl: cnn.ImplTiled, Tuning: tuning})
		sh, _, _ := newShell(t, fs)
		sh.Run("cmake /src")
		sh.Run("make")
		res, err := sh.Run("./ece408 /data/test10.hdf5 /data/model.hdf5 1000")
		if err != nil {
			t.Fatal(err)
		}
		return res.InternalTimer
	}
	base, doubled := run(1.0), run(2.0)
	ratio := float64(doubled) / float64(base)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("tuning 2.0 / 1.0 runtime ratio = %v, want ~2", ratio)
	}
}

func TestUsrBinTimeReport(t *testing.T) {
	// Listing 2 line 10: /usr/bin/time ./ece408 ... — the report goes to
	// instructors, the internal timer to students.
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col})
	sh, _, _ := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	res, err := sh.Run("/usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TimeReport, "real ") || !strings.Contains(res.TimeReport, "user ") {
		t.Errorf("TimeReport = %q", res.TimeReport)
	}
	if !res.RanInference || res.InternalTimer == 0 {
		t.Errorf("inference fields not propagated: %+v", res)
	}
}

func TestCpRecursiveForSubmission(t *testing.T) {
	// Listing 2 line 7: cp -r /src /build/submission_code.
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col, Team: "t9"})
	sh, _, _ := newShell(t, fs)
	if _, err := sh.Run("cp -r /src /build/submission_code"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/build/submission_code/ece408_src/new-forward.cuh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "team t9") {
		t.Error("copied source lost content")
	}
	// Non-recursive copy of a directory fails like real cp.
	if _, err := sh.Run("cp /src /build/nope"); err == nil {
		t.Error("cp dir without -r succeeded")
	}
}

func TestFilesystemUtilities(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/build/hello.txt", []byte("hi"))
	sh, out, _ := newShell(t, fs)
	if _, err := sh.Run("mkdir -p /build/a/b"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/build/a/b") {
		t.Error("mkdir -p did not create the tree")
	}
	if _, err := sh.Run("cat hello.txt"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hi") {
		t.Errorf("cat output = %q", out.String())
	}
	out.Reset()
	if _, err := sh.Run("ls /build"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a/") || !strings.Contains(out.String(), "hello.txt") {
		t.Errorf("ls output = %q", out.String())
	}
	out.Reset()
	sh.Run("pwd")
	if strings.TrimSpace(out.String()) != "/build" {
		t.Errorf("pwd = %q", out.String())
	}
}

func TestSleepAccumulatesWall(t *testing.T) {
	sh, _, _ := newShell(t, vfs.New())
	res, err := sh.Run("sleep 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall != 2500*time.Millisecond {
		t.Errorf("Wall = %v", res.Wall)
	}
	if _, err := sh.Run("sleep nope"); err == nil {
		t.Error("bad sleep accepted")
	}
}

func TestBinaryRunRejectsMissingArgs(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col})
	sh, _, _ := newShell(t, fs)
	sh.Run("cmake /src")
	sh.Run("make")
	if _, err := sh.Run("./ece408"); err == nil {
		t.Error("missing args accepted")
	}
	if _, err := sh.Run("./ece408 /data/missing.hdf5 /data/model.hdf5"); err == nil {
		t.Error("missing data file accepted")
	}
	if _, err := sh.Run("./ece408 /data/test10.hdf5 /data/model.hdf5 -3"); err == nil {
		t.Error("negative count accepted")
	}
	// A student's own model of the wrong geometry is refused, not run
	// into an index out of range.
	nw := cnn.NewNetwork(1)
	nw.FC1W = cnn.NewTensor(120, 100, 1, 1)
	model, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/build/model.hdf5", model)
	if res, err := sh.Run("./ece408 /data/test10.hdf5 /build/model.hdf5"); err == nil || res.ExitCode != 1 {
		t.Errorf("malformed model: %v %+v", err, res)
	}
	// Running a non-binary file fails like exec would.
	fs.WriteFile("/build/script.txt", []byte("just text"))
	if res, err := sh.Run("./script.txt"); err == nil || res.ExitCode != 126 {
		t.Errorf("non-binary exec: %v %+v", err, res)
	}
}

func TestCustomCMakeTargetName(t *testing.T) {
	fs := containerFS(t, project.Spec{Impl: cnn.ImplIm2col})
	// Rewrite CMakeLists with a different target.
	fs.WriteFile("/src/CMakeLists.txt", []byte("add_executable(mynet main.cu)\n"))
	sh, _, _ := newShell(t, fs)
	sh.Run("cmake /src")
	if _, err := sh.Run("make"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(path.Join("/build", "mynet")) {
		t.Error("custom target not produced")
	}
}

func TestProgramsListed(t *testing.T) {
	sh, _, _ := newShell(t, vfs.New())
	for _, want := range []string{"echo", "cmake", "make", "nvprof", "time", "cp"} {
		if sh.programs[want] == nil {
			t.Errorf("program %q not registered", want)
		}
	}
}
