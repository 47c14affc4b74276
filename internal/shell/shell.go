// Package shell implements the command interpreter that executes the
// build steps of a rai-build.yml inside a sandboxed container filesystem.
// It provides the programs the paper's Listings 1 and 2 invoke — echo,
// cmake, make, cp, nvprof, /usr/bin/time, and the course's ece408
// inference binary — over an internal/vfs filesystem, so student build
// specifications run deterministically and portably.
//
// Each command reports the simulated wall time it consumed; the sandbox
// layers that onto its clock (virtual in simulations, real in daemons).
// The ece408 program performs real CNN inference (internal/cnn) on a
// verification subset for correctness, while elapsed time for the full
// batch comes from the CostModel, calibrated to the paper's observations
// (a ~30-minute serial baseline; optimized runs mostly under a second).
package shell

import (
	"fmt"
	"io"
	"path"
	"strings"
	"time"

	"rai/internal/vfs"
)

// Result is the outcome of one command.
type Result struct {
	ExitCode int
	// Wall is the simulated wall-clock duration the command consumed.
	Wall time.Duration
	// TimeReport carries /usr/bin/time output destined for instructors
	// only (paper §V: "the results from the time command are shown to
	// the instructors during grading").
	TimeReport string
	// InternalTimer is the student-visible measured inference time
	// reported by the ece408 binary's internal timer, when it ran.
	InternalTimer time.Duration
	// RanInference is true when the command executed the model.
	RanInference bool
	// Accuracy is the measured verification accuracy when inference ran.
	Accuracy float64
	// MemBytes is the command's peak modeled memory use; the sandbox
	// kills the container when it exceeds the configured limit (the
	// paper's 8 GB cap).
	MemBytes int64
}

// ErrExit is returned (wrapped) when a command fails; the exit code is
// in Result.ExitCode.
type ExitError struct {
	Code int
	Msg  string
}

func (e *ExitError) Error() string {
	return fmt.Sprintf("exit status %d: %s", e.Code, e.Msg)
}

// Shell interprets commands against a container filesystem.
type Shell struct {
	FS     *vfs.FS
	Cwd    string
	Stdout io.Writer
	Stderr io.Writer
	Cost   CostModel
	// Decoded caches the model and data files ./ece408 decodes. New
	// gives each shell its own; shells that share one, as the containers
	// of one worker do, decode a file they all read once.
	Decoded *DecodeCache
	// Env holds variables; unused by the default programs but kept for
	// extension parity with the real client.
	Env map[string]string
	// programs maps binary names/paths to implementations.
	programs map[string]Program
}

// Program is one executable the shell can run.
type Program func(sh *Shell, argv []string, res *Result) error

// New builds a shell over fs with the default program set, starting in
// cwd (the worker sets /build, paper §V worker step 4).
func New(fs *vfs.FS, cwd string, stdout, stderr io.Writer, cost CostModel) *Shell {
	if cost == nil {
		cost = DefaultCostModel()
	}
	sh := &Shell{
		FS: fs, Cwd: cwd, Stdout: stdout, Stderr: stderr, Cost: cost,
		Decoded:  new(DecodeCache),
		Env:      map[string]string{},
		programs: map[string]Program{},
	}
	registerDefaults(sh)
	return sh
}

// Register installs (or overrides) a program by name.
func (sh *Shell) Register(name string, p Program) { sh.programs[name] = p }

// Run tokenizes and executes one command line.
func (sh *Shell) Run(cmdline string) (Result, error) {
	var res Result
	argv, err := Tokenize(cmdline)
	if err != nil {
		res.ExitCode = 2
		fmt.Fprintf(sh.Stderr, "sh: %v\n", err)
		return res, err
	}
	if len(argv) == 0 {
		return res, nil
	}
	return sh.exec(argv)
}

// exec dispatches an argv to its program.
func (sh *Shell) exec(argv []string) (Result, error) {
	var res Result
	prog, ok := sh.lookupProgram(argv[0])
	if !ok {
		res.ExitCode = 127
		msg := fmt.Sprintf("%s: command not found", argv[0])
		fmt.Fprintln(sh.Stderr, msg)
		return res, &ExitError{Code: 127, Msg: msg}
	}
	err := prog(sh, argv, &res)
	if err != nil {
		if ee, ok := err.(*ExitError); ok {
			res.ExitCode = ee.Code
		} else if res.ExitCode == 0 {
			res.ExitCode = 1
		}
	}
	return res, err
}

// lookupProgram resolves a command name: exact program names, absolute
// paths whose base is registered (/usr/bin/time), and ./name executables
// produced by make.
func (sh *Shell) lookupProgram(name string) (Program, bool) {
	if p, ok := sh.programs[name]; ok {
		return p, true
	}
	base := name[strings.LastIndex(name, "/")+1:]
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/") {
		// A compiled binary on the filesystem runs through the binary
		// loader; registered path-programs (e.g. /usr/bin/time) match by
		// base name.
		if p, ok := sh.programs[base]; ok && !strings.HasPrefix(name, "./") {
			return p, true
		}
		abs := sh.abs(name)
		if sh.FS.Exists(abs) {
			return runBinary, true
		}
		if p, ok := sh.programs[base]; ok {
			return p, true
		}
	}
	return nil, false
}

// abs resolves a path against the cwd. An absolute path that is
// already clean comes back as is, without allocating.
func (sh *Shell) abs(p string) string {
	if !strings.HasPrefix(p, "/") {
		// Without its leading "./", ./ece408 under a clean cwd joins to
		// a clean path, which costs one allocation instead of three.
		for strings.HasPrefix(p, "./") {
			p = p[2:]
		}
		p = sh.Cwd + "/" + p
		if !strings.HasPrefix(p, "/") {
			p = "/" + p
		}
	}
	return path.Clean(p)
}

// Tokenize splits a command line honoring single/double quotes and
// backslash escapes (enough for build-file commands; no expansions).
func Tokenize(line string) ([]string, error) {
	// A line without quotes, escapes or operators is split on blanks
	// alone, and its words are substrings of it.
	if !strings.ContainsAny(line, "'\"\\|><&;") {
		if words := strings.FieldsFunc(line, isBlank); len(words) > 0 {
			return words, nil
		}
		return nil, nil
	}
	var out []string
	var cur strings.Builder
	started := false
	inS, inD := false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inS:
			if c == '\'' {
				inS = false
			} else {
				cur.WriteByte(c)
			}
		case inD:
			switch c {
			case '"':
				inD = false
			case '\\':
				if i+1 < len(line) {
					i++
					cur.WriteByte(line[i])
				} else {
					return nil, fmt.Errorf("trailing backslash")
				}
			default:
				cur.WriteByte(c)
			}
		case c == '\'':
			inS, started = true, true
		case c == '"':
			inD, started = true, true
		case c == '\\':
			if i+1 >= len(line) {
				return nil, fmt.Errorf("trailing backslash")
			}
			i++
			cur.WriteByte(line[i])
			started = true
		case isBlank(rune(c)):
			if started {
				out = append(out, cur.String())
				cur.Reset()
				started = false
			}
		case c == '|' || c == '>' || c == '<' || c == '&' || c == ';':
			return nil, fmt.Errorf("shell operator %q is not supported in build commands", c)
		default:
			cur.WriteByte(c)
			started = true
		}
	}
	if inS || inD {
		return nil, fmt.Errorf("unterminated quote")
	}
	if started {
		out = append(out, cur.String())
	}
	return out, nil
}

// isBlank reports whether r separates words on a command line.
func isBlank(r rune) bool { return r == ' ' || r == '\t' }
