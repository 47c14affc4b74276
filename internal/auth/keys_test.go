package auth

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeysFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	reg := NewRegistry()
	for _, u := range []string{"team-b", "team-a"} {
		if _, err := reg.Issue(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.WriteKeys(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("keys file mode %v, %v; want 0600", fi.Mode(), err)
	}
	blob, _ := os.ReadFile(path)
	if a, b := strings.Index(string(blob), "team-a"), strings.Index(string(blob), "team-b"); a < 0 || b < a {
		t.Errorf("keys file not sorted by user:\n%s", blob)
	}
	back, err := ReadKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Users(); len(got) != 2 {
		t.Fatalf("read back users %v", got)
	}
	for _, u := range reg.Users() {
		want, _ := reg.LookupUser(u)
		if got, ok := back.LookupUser(u); !ok || got != want {
			t.Errorf("%s read back as %+v, want %+v", u, got, want)
		}
		if got, ok := back.Lookup(want.AccessKey); !ok || got != want {
			t.Errorf("%s not found by access key", u)
		}
	}
}

func TestReadKeysRefusesDuplicateUser(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	dup := `[{"user_name":"t","access_key":"a1","secret_key":"s1"},{"user_name":"t","access_key":"a2","secret_key":"s2"}]`
	if err := os.WriteFile(path, []byte(dup), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := ReadKeys(path)
	if !errors.Is(err, ErrDuplicateUser) || !strings.Contains(err.Error(), path) {
		t.Fatalf("duplicate user: err = %v, want ErrDuplicateUser naming %s", err, path)
	}
}

func TestReadKeysMalformedNamesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(`{"user_name":`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKeys(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("malformed file: err = %v, want one naming %s", err, path)
	}
	missing := filepath.Join(t.TempDir(), "absent.json")
	if _, err := ReadKeys(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("missing file: err = %v, want one naming %s", err, missing)
	}
}
