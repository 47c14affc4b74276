package release

import (
	"context"
	"strings"
	"testing"
	"time"

	"rai/internal/objstore"
)

func fixedNow() time.Time { return time.Date(2016, 11, 15, 8, 0, 0, 0, time.UTC) }

// storeUploader adapts the objstore engine to the Uploader port.
type storeUploader struct{ s *objstore.Store }

func (u storeUploader) Put(bucket, key string, data []byte, ttl time.Duration) error {
	return u.s.Put(context.Background(), bucket, key, data, ttl)
}

func TestTargetsMatchFigure3(t *testing.T) {
	ts := Targets()
	if len(ts) != 10 {
		t.Fatalf("targets = %d, want 10 (Figure 3 rows)", len(ts))
	}
	count := map[string]int{}
	for _, tgt := range ts {
		count[tgt.OS]++
	}
	if count["linux"] != 6 || count["darwin"] != 2 || count["windows"] != 2 {
		t.Errorf("per-OS counts = %v, want linux:6 darwin:2 windows:2", count)
	}
}

func TestPushBuildsAllTargetsAndUploads(t *testing.T) {
	store := objstore.New()
	ci := NewCI("rai-client", "https://files.rai-project.com", storeUploader{store})
	ci.Now = fixedNow
	arts, err := ci.Push(BranchStable, "abc1234", "0.2.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 10 {
		t.Fatalf("artifacts = %d", len(arts))
	}
	for _, a := range arts {
		if _, err := store.Head(context.Background(), "rai-client", a.Key); err != nil || !strings.HasPrefix(a.Key, "master/") {
			t.Fatalf("artifact %s not uploaded under master/: %v", a.Key, err)
		}
	}
	// The Windows artifact carries .exe.
	found := false
	for _, a := range arts {
		if a.Target.OS == "windows" && strings.HasSuffix(a.Key, ".exe") {
			found = true
		}
	}
	if !found {
		t.Error("windows artifact lacks .exe suffix")
	}
	// Version info is embedded and identifies the commit (§VII).
	data, err := store.Get(context.Background(), "rai-client", arts[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"abc1234", "0.2.1", "master", "2016-11-15"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("embedded build info missing %q: %s", want, data)
		}
	}
}

func TestTableHasBothBranchColumns(t *testing.T) {
	ci := NewCI("rai-client", "https://dl", nil)
	ci.Now = fixedNow
	if _, err := ci.Push(BranchStable, "aaaa111", "0.2.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := ci.Push(BranchDevel, "bbbb222", "0.3.0-dev"); err != nil {
		t.Fatal(err)
	}
	rows := ci.Table()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.StableURL == "" || r.DevelURL == "" {
			t.Errorf("row %s/%s missing a link: %+v", r.OS, r.Arch, r)
		}
		if !strings.Contains(r.StableURL, "master") || !strings.Contains(r.DevelURL, "devel") {
			t.Errorf("branch mixup in row %+v", r)
		}
	}
	text := FormatTable(rows)
	for _, want := range []string{"Linux", "OSX/Darwin", "Windows", "amd64", "armv7", "Stable Version Link", "Development Version Link"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestPushValidation(t *testing.T) {
	ci := NewCI("b", "https://dl", nil)
	ci.Now = fixedNow
	if _, err := ci.Push("feature-branch", "c", "v"); err == nil {
		t.Error("unknown branch accepted")
	}
	if _, err := ci.Push(BranchStable, "", "v"); err == nil {
		t.Error("empty commit accepted")
	}
}

func TestBuildInfoString(t *testing.T) {
	info := BuildInfo{Version: "0.2.1", Commit: "abc", Branch: "master", BuildDate: fixedNow(), OS: "linux", Arch: "amd64"}
	s := info.String()
	for _, want := range []string{"rai 0.2.1", "abc", "linux/amd64", "master"} {
		if !strings.Contains(s, want) {
			t.Errorf("BuildInfo.String() missing %q: %s", want, s)
		}
	}
}
