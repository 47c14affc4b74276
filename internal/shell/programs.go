package shell

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"path"
	"strconv"
	"strings"
	"time"

	"rai/internal/cnn"
	"rai/internal/vfs"
)

// Source pragmas the simulated compiler honours. Student source trees
// carry these markers to declare which kernel the "CUDA code" implements
// — the reproduction's stand-in for actually writing the kernel.
const (
	PragmaImpl         = "rai::impl="         // naive-serial | loop-reorder | tiled | im2col | parallel
	PragmaTuning       = "rai::tuning="       // float multiplier on runtime
	PragmaBug          = "rai::bug="          // accuracy | crash | hang
	PragmaCompileError = "rai::compile-error" // make fails
)

// verifyImages bounds the real-arithmetic correctness check per run.
const verifyImages = 10

// dataLoadBytesPerSec models h5 file load throughput.
const dataLoadBytesPerSec = 200 << 20

// binaryDescriptor is what `make` writes as the compiled executable.
type binaryDescriptor struct {
	RAIBinary int     `json:"rai_binary"`
	Target    string  `json:"target"`
	Impl      string  `json:"impl"`
	Tuning    float64 `json:"tuning"`
	Bug       string  `json:"bug"`
	SrcBytes  int64   `json:"src_bytes"`
}

func registerDefaults(sh *Shell) {
	sh.Register("echo", progEcho)
	sh.Register("true", func(*Shell, []string, *Result) error { return nil })
	sh.Register("false", func(_ *Shell, _ []string, r *Result) error {
		return &ExitError{Code: 1, Msg: "false"}
	})
	sh.Register("pwd", func(s *Shell, _ []string, _ *Result) error {
		fmt.Fprintln(s.Stdout, s.Cwd)
		return nil
	})
	sh.Register("sleep", progSleep)
	sh.Register("ls", progLs)
	sh.Register("cat", progCat)
	sh.Register("mkdir", progMkdir)
	sh.Register("cp", progCp)
	sh.Register("cmake", progCmake)
	sh.Register("make", progMake)
	sh.Register("nvprof", progNvprof)
	sh.Register("time", progTime)
}

func progEcho(sh *Shell, argv []string, _ *Result) error {
	fmt.Fprintln(sh.Stdout, strings.Join(argv[1:], " "))
	return nil
}

func progSleep(sh *Shell, argv []string, res *Result) error {
	if len(argv) != 2 {
		return &ExitError{Code: 2, Msg: "sleep: usage: sleep SECONDS"}
	}
	secs, err := strconv.ParseFloat(argv[1], 64)
	if err != nil || secs < 0 {
		return &ExitError{Code: 2, Msg: "sleep: invalid interval"}
	}
	res.Wall += time.Duration(secs * float64(time.Second))
	return nil
}

func progLs(sh *Shell, argv []string, _ *Result) error {
	dir := sh.Cwd
	if len(argv) > 1 {
		dir = sh.abs(argv[1])
	}
	entries, err := sh.FS.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "ls: %v\n", err)
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	for _, e := range entries {
		name := e.Name
		if e.Dir {
			name += "/"
		}
		fmt.Fprintln(sh.Stdout, name)
	}
	return nil
}

func progCat(sh *Shell, argv []string, _ *Result) error {
	if len(argv) < 2 {
		return &ExitError{Code: 2, Msg: "cat: usage: cat FILE..."}
	}
	for _, f := range argv[1:] {
		data, err := sh.FS.ReadFile(sh.abs(f))
		if err != nil {
			fmt.Fprintf(sh.Stderr, "cat: %v\n", err)
			return &ExitError{Code: 1, Msg: err.Error()}
		}
		sh.Stdout.Write(data)
	}
	return nil
}

func progMkdir(sh *Shell, argv []string, _ *Result) error {
	args := argv[1:]
	if len(args) > 0 && args[0] == "-p" {
		args = args[1:]
	}
	if len(args) == 0 {
		return &ExitError{Code: 2, Msg: "mkdir: missing operand"}
	}
	for _, d := range args {
		if err := sh.FS.MkdirAll(sh.abs(d)); err != nil {
			fmt.Fprintf(sh.Stderr, "mkdir: %v\n", err)
			return &ExitError{Code: 1, Msg: err.Error()}
		}
	}
	return nil
}

func progCp(sh *Shell, argv []string, _ *Result) error {
	args := argv[1:]
	recursive := false
	if len(args) > 0 && (args[0] == "-r" || args[0] == "-R") {
		recursive = true
		args = args[1:]
	}
	if len(args) != 2 {
		return &ExitError{Code: 2, Msg: "cp: usage: cp [-r] SRC DST"}
	}
	src, dst := sh.abs(args[0]), sh.abs(args[1])
	fi, err := sh.FS.Stat(src)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "cp: %v\n", err)
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	if fi.Dir {
		if !recursive {
			msg := fmt.Sprintf("cp: -r not specified; omitting directory '%s'", args[0])
			fmt.Fprintln(sh.Stderr, msg)
			return &ExitError{Code: 1, Msg: msg}
		}
		// cp -r SRC DST: when DST exists, copy into DST/basename(SRC).
		if dfi, err := sh.FS.Stat(dst); err == nil && dfi.Dir {
			dst = path.Join(dst, path.Base(src))
		}
		if err := vfs.CopyTree(sh.FS, dst, sh.FS, src); err != nil {
			fmt.Fprintf(sh.Stderr, "cp: %v\n", err)
			return &ExitError{Code: 1, Msg: err.Error()}
		}
		return nil
	}
	data, err := sh.FS.ReadFile(src)
	if err != nil {
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	if dfi, err := sh.FS.Stat(dst); err == nil && dfi.Dir {
		dst = path.Join(dst, path.Base(src))
	}
	if err := sh.FS.WriteFile(dst, data); err != nil {
		fmt.Fprintf(sh.Stderr, "cp: %v\n", err)
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	return nil
}

// progCmake configures the build: it validates the source directory and
// generates a Makefile recording it (paper Listing 1 line 7).
func progCmake(sh *Shell, argv []string, res *Result) error {
	if len(argv) != 2 {
		return &ExitError{Code: 2, Msg: "cmake: usage: cmake SRCDIR"}
	}
	srcDir := sh.abs(argv[1])
	fi, err := sh.FS.Stat(srcDir)
	if err != nil || !fi.Dir {
		msg := fmt.Sprintf("CMake Error: The source directory \"%s\" does not exist.", srcDir)
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 1, Msg: msg}
	}
	if !sh.FS.Exists(path.Join(srcDir, "CMakeLists.txt")) {
		msg := fmt.Sprintf("CMake Error: The source directory \"%s\" does not appear to contain CMakeLists.txt.", srcDir)
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 1, Msg: msg}
	}
	target := cmakeTarget(sh.FS, srcDir)
	mk := fmt.Sprintf("# Makefile generated by cmake\nSRCDIR=%s\nTARGET=%s\n", srcDir, target)
	if err := sh.FS.WriteFile(path.Join(sh.Cwd, "Makefile"), []byte(mk)); err != nil {
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	fmt.Fprintf(sh.Stdout, "-- Configuring done\n-- Generating done\n-- Build files have been written to: %s\n", sh.Cwd)
	res.Wall += sh.Cost.Configure()
	return nil
}

// cmakeTarget extracts the add_executable target name, defaulting to the
// course binary name.
func cmakeTarget(fs *vfs.FS, srcDir string) string {
	data, err := fs.ReadFile(path.Join(srcDir, "CMakeLists.txt"))
	if err != nil {
		return "ece408"
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "add_executable("); ok {
			fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == ')' || r == '\t' })
			if len(fields) > 0 && fields[0] != "" {
				return fields[0]
			}
		}
	}
	return "ece408"
}

// progMake "compiles" the student sources: it scans the source tree for
// pragmas, fails on rai::compile-error, and writes the binary descriptor
// as the build target (paper Listing 1 line 8).
func progMake(sh *Shell, argv []string, res *Result) error {
	mkPath := path.Join(sh.Cwd, "Makefile")
	mkData, err := sh.FS.ReadFile(mkPath)
	if err != nil {
		msg := "make: *** No targets specified and no makefile found.  Stop."
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 2, Msg: msg}
	}
	srcDir, target := "", "ece408"
	for _, line := range strings.Split(string(mkData), "\n") {
		if v, ok := strings.CutPrefix(line, "SRCDIR="); ok {
			srcDir = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(line, "TARGET="); ok {
			target = strings.TrimSpace(v)
		}
	}
	if srcDir == "" || !sh.FS.Exists(srcDir) {
		msg := "make: *** missing source directory.  Stop."
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 2, Msg: msg}
	}
	desc := binaryDescriptor{RAIBinary: 1, Target: target, Impl: cnn.ImplNaiveSerial.String(), Tuning: 1}
	var srcBytes int64
	sources := 0
	var compileErr string
	walkErr := fs.WalkDir(sh.FS.IOFS(srcDir), ".", func(rel string, d fs.DirEntry, err error) error {
		p := path.Join(srcDir, rel)
		if err != nil || d.IsDir() || !isSourceFile(p) {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		sources++
		srcBytes += fi.Size()
		data, err := sh.FS.ReadFile(p)
		if err != nil {
			return err
		}
		text := string(data)
		if strings.Contains(text, PragmaCompileError) {
			compileErr = p
		}
		if v := pragmaValue(text, PragmaImpl); v != "" {
			desc.Impl = v
		}
		if v := pragmaValue(text, PragmaTuning); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				desc.Tuning = f
			}
		}
		if v := pragmaValue(text, PragmaBug); v != "" {
			desc.Bug = v
		}
		return nil
	})
	if walkErr != nil {
		return &ExitError{Code: 2, Msg: walkErr.Error()}
	}
	if sources == 0 {
		msg := "make: *** no source files found.  Stop."
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 2, Msg: msg}
	}
	if !validImplName(desc.Impl) {
		msg := fmt.Sprintf("nvcc fatal: unknown kernel variant %q", desc.Impl)
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 2, Msg: msg}
	}
	res.Wall += sh.Cost.Compile(srcBytes)
	if compileErr != "" {
		fmt.Fprintf(sh.Stderr, "%s: error: expected ';' before '}' token\nmake: *** [%s.o] Error 1\n", compileErr, target)
		return &ExitError{Code: 2, Msg: "compile error in " + compileErr}
	}
	desc.SrcBytes = srcBytes
	blob, err := json.Marshal(desc)
	if err != nil {
		return &ExitError{Code: 2, Msg: err.Error()}
	}
	if err := sh.FS.WriteFile(path.Join(sh.Cwd, target), blob); err != nil {
		return &ExitError{Code: 2, Msg: err.Error()}
	}
	fmt.Fprintf(sh.Stdout, "[100%%] Built target %s\n", target)
	return nil
}

func isSourceFile(p string) bool {
	for _, ext := range []string{".cu", ".cuh", ".cc", ".cpp", ".c", ".h", ".hpp"} {
		if strings.HasSuffix(p, ext) {
			return true
		}
	}
	return false
}

func pragmaValue(text, pragma string) string {
	idx := strings.Index(text, pragma)
	if idx < 0 {
		return ""
	}
	rest := text[idx+len(pragma):]
	end := strings.IndexAny(rest, " \t\n\r")
	if end < 0 {
		end = len(rest)
	}
	return rest[:end]
}

func validImplName(name string) bool {
	for _, im := range cnn.Impls {
		if im.String() == name {
			return true
		}
	}
	return false
}

func implByName(name string) cnn.Impl {
	for _, im := range cnn.Impls {
		if im.String() == name {
			return im
		}
	}
	return cnn.ImplNaiveSerial
}

// progNvprof profiles a wrapped command and exports a timeline file
// (paper Listing 1 lines 10–11).
func progNvprof(sh *Shell, argv []string, res *Result) error {
	exportPath := ""
	rest := argv[1:]
	for len(rest) > 0 && strings.HasPrefix(rest[0], "--") {
		switch {
		case rest[0] == "--export-profile" && len(rest) > 1:
			exportPath = rest[1]
			rest = rest[2:]
		case strings.HasPrefix(rest[0], "--export-profile="):
			exportPath = strings.TrimPrefix(rest[0], "--export-profile=")
			rest = rest[1:]
		default:
			rest = rest[1:] // ignore other flags
		}
	}
	if len(rest) == 0 {
		return &ExitError{Code: 2, Msg: "nvprof: no command to profile"}
	}
	inner, err := sh.exec(rest)
	res.Wall += sh.Cost.ProfileOverhead(inner.Wall)
	res.TimeReport = inner.TimeReport
	res.InternalTimer = inner.InternalTimer
	res.RanInference = inner.RanInference
	res.Accuracy = inner.Accuracy
	if err != nil {
		res.ExitCode = inner.ExitCode
		return err
	}
	if exportPath != "" {
		profile := fmt.Sprintf("NVPROF TIMELINE v1\ncommand: %s\nkernels: forward_kernel gemm_kernel pool_kernel\nelapsed: %.6fs\n",
			strings.Join(rest, " "), inner.Wall.Seconds())
		if err := sh.FS.WriteFile(sh.abs(exportPath), []byte(profile)); err != nil {
			return &ExitError{Code: 1, Msg: err.Error()}
		}
		fmt.Fprintf(sh.Stdout, "==1== Generated result file: %s\n", sh.abs(exportPath))
	}
	return nil
}

// progTime is /usr/bin/time: it runs the wrapped command and records a
// timing report visible only to instructors (paper Listing 2 line 10).
func progTime(sh *Shell, argv []string, res *Result) error {
	if len(argv) < 2 {
		return &ExitError{Code: 2, Msg: "time: no command"}
	}
	inner, err := sh.exec(argv[1:])
	res.Wall += inner.Wall
	res.InternalTimer = inner.InternalTimer
	res.RanInference = inner.RanInference
	res.Accuracy = inner.Accuracy
	secs := inner.Wall.Seconds()
	res.TimeReport = fmt.Sprintf("real %.2f\nuser %.2f\nsys 0.00\n", secs, secs*0.98)
	if err != nil {
		res.ExitCode = inner.ExitCode
		return err
	}
	return nil
}

// runBinary executes a compiled descriptor (./ece408 DATA MODEL [N]).
func runBinary(sh *Shell, argv []string, res *Result) error {
	binPath := sh.abs(argv[0])
	parts, _, err := sh.FS.Segments(binPath)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "sh: %s: %v\n", argv[0], err)
		return &ExitError{Code: 126, Msg: err.Error()}
	}
	var desc binaryDescriptor
	if err := json.Unmarshal(contiguous(parts), &desc); err != nil || desc.RAIBinary != 1 {
		msg := fmt.Sprintf("sh: %s: cannot execute binary file", argv[0])
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 126, Msg: msg}
	}
	if len(argv) < 3 {
		msg := fmt.Sprintf("usage: %s DATA.hdf5 MODEL.hdf5 [COUNT]", argv[0])
		fmt.Fprintln(sh.Stderr, msg)
		return &ExitError{Code: 2, Msg: msg}
	}
	dataPath, modelPath := sh.abs(argv[1]), sh.abs(argv[2])

	switch desc.Bug {
	case "oom":
		// A kernel that tries to allocate far beyond the container's
		// memory limit; the sandbox enforces the cap.
		res.MemBytes = 64 << 30
		fmt.Fprintln(sh.Stderr, "cudaMalloc: allocating 64 GiB host staging buffer")
		return nil
	case "crash":
		fmt.Fprintln(sh.Stderr, "CUDA error: an illegal memory access was encountered (err 77)")
		return &ExitError{Code: 1, Msg: "CUDA illegal memory access"}
	case "hang":
		// The kernel never returns; the sandbox's lifetime limit reaps it.
		res.Wall += 365 * 24 * time.Hour
		fmt.Fprintln(sh.Stderr, "(kernel running...)")
		return &ExitError{Code: 137, Msg: "killed: container lifetime exceeded"}
	}

	// The files are read in place, and one this shell's cache has
	// decoded before is not decoded again.
	dataParts, dataSize, err := sh.FS.Segments(dataPath)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "%s: cannot open data file %s\n", desc.Target, argv[1])
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	modelParts, modelSize, err := sh.FS.Segments(modelPath)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "%s: cannot open model file %s\n", desc.Target, argv[2])
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	ds, err := sh.Decoded.dataset(dataParts)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "%s: bad data file: %v\n", desc.Target, err)
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	nw, err := sh.Decoded.model(modelParts)
	if err != nil {
		fmt.Fprintf(sh.Stderr, "%s: bad model file: %v\n", desc.Target, err)
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	count := ds.Images.N
	if len(argv) >= 4 {
		n, err := strconv.Atoi(argv[3])
		if err != nil || n <= 0 {
			msg := fmt.Sprintf("%s: bad image count %q", desc.Target, argv[3])
			fmt.Fprintln(sh.Stderr, msg)
			return &ExitError{Code: 2, Msg: msg}
		}
		count = n
	}
	impl := implByName(desc.Impl)
	// The binary's stdout is built in one buffer rather than by
	// fmt.Fprintf, whose arguments would each cost an allocation.
	out := make([]byte, 0, 160)
	out = append(out, "Loading model... done\nLoading data... done\nRunning inference on "...)
	out = strconv.AppendInt(out, int64(count), 10)
	out = append(append(append(out, " images ("...), desc.Impl...), " kernel)\n"...)
	sh.Stdout.Write(out)

	// Real arithmetic on the verification subset.
	vn := verifyImages
	if vn > ds.Images.N {
		vn = ds.Images.N
	}
	images, labels := subset(ds, vn)
	acc, err := nw.Accuracy(impl, images, labels)
	if err != nil {
		return &ExitError{Code: 1, Msg: err.Error()}
	}
	if desc.Bug == "accuracy" {
		// An incorrect kernel: correctness visibly off target.
		acc *= 0.62
	}

	// Modeled time: load + inference over the full requested count.
	loadCost := time.Duration(float64(dataSize+modelSize) / dataLoadBytesPerSec * float64(time.Second))
	inferCost := sh.Cost.Inference(impl, count, desc.Tuning)
	res.Wall += loadCost + inferCost
	res.InternalTimer = inferCost
	res.RanInference = true
	res.Accuracy = acc
	// Working set: model + data resident plus activation buffers.
	res.MemBytes = modelSize + dataSize + 256<<20

	out = strconv.AppendFloat(append(out[:0], "Correctness: "...), acc, 'f', 4, 64)
	out = append(append(append(out, " Model: "...), desc.Impl...), '\n')
	out = strconv.AppendFloat(append(out, "Internal timer: "...), inferCost.Seconds(), 'f', 4, 64)
	sh.Stdout.Write(append(out, " s\n"...))
	return nil
}

// subset returns ds's first n images and labels, sharing its storage.
func subset(ds *cnn.Dataset, n int) (*cnn.Tensor, []int32) {
	im := ds.Images
	if n >= im.N {
		return im, ds.Labels
	}
	return &cnn.Tensor{N: n, C: im.C, H: im.H, W: im.W, Data: im.Data[:n*im.C*im.H*im.W]}, ds.Labels[:n]
}
