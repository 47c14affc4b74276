// Package release models RAI client delivery (paper §VII "RAI Client
// Delivery" and Figure 3): a continuous build system cross-compiles the
// master (stable) and devel (development) branches for every supported
// OS/architecture pair, embeds the commit version and build date in each
// binary, uploads artifacts to the file server, and renders the download
// table students see on the project website.
package release

import (
	"fmt"
	"strings"
	"time"

	"rai/internal/clock"
)

// Target is one OS/architecture the client is cross-compiled for.
type Target struct {
	OS   string
	Arch string
}

// Targets returns the download matrix rows exactly as Figure 3 lists
// them: six Linux architectures, two OSX/Darwin, two Windows.
func Targets() []Target {
	return []Target{
		{"linux", "i386"},
		{"linux", "amd64"},
		{"linux", "armv5"},
		{"linux", "armv6"},
		{"linux", "armv7"},
		{"linux", "arm64"},
		{"darwin", "i386"},
		{"darwin", "amd64"},
		{"windows", "i386"},
		{"windows", "amd64"},
	}
}

// Branches the CI system builds (§VII: master is stable, devel carries
// new features and non-critical fixes until merged).
const (
	BranchStable = "master"
	BranchDevel  = "devel"
)

// BuildInfo is embedded in every produced client binary so bug reports
// identify the exact commit ("Students would provide this information
// when they reported bugs", §VII).
type BuildInfo struct {
	Version   string
	Commit    string
	Branch    string
	BuildDate time.Time
	OS        string
	Arch      string
}

// String renders what `rai version` prints.
func (b BuildInfo) String() string {
	return fmt.Sprintf("rai %s (%s) %s/%s built %s from %s",
		b.Version, b.Commit, b.OS, b.Arch, b.BuildDate.UTC().Format("2006-01-02T15:04:05Z"), b.Branch)
}

// Artifact is one cross-compiled client binary.
type Artifact struct {
	Target Target
	Branch string
	Info   BuildInfo
	// Key is the object-store key the artifact was uploaded to.
	Key string
	// URL is the public download link rendered on the website.
	URL string
}

// binaryName forms the artifact file name.
func binaryName(t Target, branch string) string {
	name := fmt.Sprintf("rai-%s-%s-%s", branch, t.OS, t.Arch)
	if t.OS == "windows" {
		name += ".exe"
	}
	return name
}

// Uploader stores built artifacts (the objstore client or engine).
type Uploader interface {
	Put(bucket, key string, data []byte, ttl time.Duration) error
}

// CI is the continuous build system: it reacts to pushes by building
// every target for the pushed branch and uploading the results.
type CI struct {
	// Bucket receives artifacts (linked from the project home page).
	Bucket string
	// BaseURL prefixes download links.
	BaseURL string
	// Uploader is the artifact destination; nil skips uploading (table
	// rendering only).
	Uploader Uploader
	// Now supplies build timestamps.
	Now func() time.Time

	latest map[string][]Artifact // branch -> artifacts of latest build
}

// NewCI returns a CI publishing into bucket at baseURL.
func NewCI(bucket, baseURL string, up Uploader) *CI {
	return &CI{
		Bucket:   bucket,
		BaseURL:  strings.TrimSuffix(baseURL, "/"),
		Uploader: up,
		Now:      clock.Real{}.Now,
		latest:   map[string][]Artifact{},
	}
}

// Push simulates a commit landing on branch: all targets are rebuilt,
// stamped with the commit, and uploaded, so "code changes to fix bugs or
// address features were automatically made available to students" (§VII).
func (ci *CI) Push(branch, commit, version string) ([]Artifact, error) {
	if branch != BranchStable && branch != BranchDevel {
		return nil, fmt.Errorf("release: unknown branch %q", branch)
	}
	if commit == "" {
		return nil, fmt.Errorf("release: empty commit")
	}
	now := ci.Now()
	var artifacts []Artifact
	for _, t := range Targets() {
		info := BuildInfo{
			Version: version, Commit: commit, Branch: branch,
			BuildDate: now, OS: t.OS, Arch: t.Arch,
		}
		key := fmt.Sprintf("%s/%s", branch, binaryName(t, branch))
		a := Artifact{
			Target: t, Branch: branch, Info: info,
			Key: key,
			URL: ci.BaseURL + "/" + key,
		}
		if ci.Uploader != nil {
			// The artifact body is the embedded build info; a real build
			// would be the compiled binary with this stamped in.
			if err := ci.Uploader.Put(ci.Bucket, key, []byte(info.String()), 0); err != nil {
				return nil, fmt.Errorf("release: uploading %s: %w", key, err)
			}
		}
		artifacts = append(artifacts, a)
	}
	ci.latest[branch] = artifacts
	return artifacts, nil
}

// Row is one line of the Figure 3 download table.
type Row struct {
	OS, Arch  string
	StableURL string
	DevelURL  string
}

// Table renders the Figure 3 matrix from the latest builds. Rows appear
// in the canonical target order; missing builds leave empty URLs.
func (ci *CI) Table() []Row {
	find := func(branch string, t Target) string {
		for _, a := range ci.latest[branch] {
			if a.Target == t {
				return a.URL
			}
		}
		return ""
	}
	var rows []Row
	for _, t := range Targets() {
		rows = append(rows, Row{
			OS: t.OS, Arch: t.Arch,
			StableURL: find(BranchStable, t),
			DevelURL:  find(BranchDevel, t),
		})
	}
	return rows
}

// FormatTable renders the table as aligned text (the raisim figure3
// output).
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-8s %-36s %s\n", "Operating System", "Arch", "Stable Version Link", "Development Version Link")
	for _, r := range rows {
		osName := r.OS
		switch osName {
		case "darwin":
			osName = "OSX/Darwin"
		case "linux":
			osName = "Linux"
		case "windows":
			osName = "Windows"
		}
		fmt.Fprintf(&b, "%-18s %-8s %-36s %s\n", osName, r.Arch, r.StableURL, r.DevelURL)
	}
	return b.String()
}
