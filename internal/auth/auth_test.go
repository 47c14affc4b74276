package auth

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestGenerateKeyShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := GenerateKey()
		if len(k) != keyLen {
			t.Fatalf("key length = %d", len(k))
		}
		for _, r := range k {
			if !strings.ContainsRune(keyAlphabet, r) {
				t.Fatalf("key %q contains %q outside alphabet", k, r)
			}
		}
		if seen[k] {
			t.Fatalf("duplicate key generated: %q", k)
		}
		seen[k] = true
	}
}

func TestRegistryIssueLookup(t *testing.T) {
	r := NewRegistry()
	c, err := r.Issue("team7")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup(c.AccessKey)
	if !ok || got.UserName != "team7" {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if _, err := r.Issue("team7"); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("duplicate issue: %v", err)
	}
}

func TestSignVerify(t *testing.T) {
	r := NewRegistry()
	fixed := time.Date(2016, 12, 1, 9, 0, 0, 0, time.UTC)
	r.SetClock(func() time.Time { return fixed })
	c, _ := r.Issue("alice")
	date := fixed.Format(time.RFC3339)
	body := []byte("payload")
	sig := Sign(c.SecretKey, "PUT", "/o/uploads/proj", date, body)
	if err := r.Verify(c.AccessKey, sig, "PUT", "/o/uploads/proj", date, body); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Tampering with any signed element invalidates.
	if err := r.Verify(c.AccessKey, sig, "GET", "/o/uploads/proj", date, body); !errors.Is(err, ErrBadSignature) {
		t.Errorf("method tamper: %v", err)
	}
	if err := r.Verify(c.AccessKey, sig, "PUT", "/o/uploads/other", date, body); !errors.Is(err, ErrBadSignature) {
		t.Errorf("path tamper: %v", err)
	}
	if err := r.Verify(c.AccessKey, sig, "PUT", "/o/uploads/proj", date, []byte("other")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("body tamper: %v", err)
	}
	if err := r.Verify("bogus", sig, "PUT", "/o/uploads/proj", date, body); !errors.Is(err, ErrUnknownAccessKey) {
		t.Errorf("unknown key: %v", err)
	}
}

func TestVerifyRejectsStale(t *testing.T) {
	r := NewRegistry()
	now := time.Date(2016, 12, 1, 9, 0, 0, 0, time.UTC)
	r.SetClock(func() time.Time { return now })
	c, _ := r.Issue("alice")
	old := now.Add(-time.Hour).Format(time.RFC3339)
	sig := Sign(c.SecretKey, "GET", "/x", old, nil)
	if err := r.Verify(c.AccessKey, sig, "GET", "/x", old, nil); !errors.Is(err, ErrStaleRequest) {
		t.Errorf("stale request: %v", err)
	}
	if err := r.Verify(c.AccessKey, sig, "GET", "/x", "not-a-date", nil); !errors.Is(err, ErrStaleRequest) {
		t.Errorf("garbage date: %v", err)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Issue("team1")
	payload := []byte(`{"job":"42"}`)
	tok := Token(c, payload)
	if err := r.VerifyToken(c.AccessKey, tok, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyToken(c.AccessKey, tok, []byte("other")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload: %v", err)
	}
	if err := r.VerifyToken("nope", tok, payload); !errors.Is(err, ErrUnknownAccessKey) {
		t.Errorf("unknown ak: %v", err)
	}
}

func TestHTTPAuthAdapter(t *testing.T) {
	r := NewRegistry()
	now := time.Date(2016, 12, 1, 9, 0, 0, 0, time.UTC)
	r.SetClock(func() time.Time { return now })
	c, _ := r.Issue("alice")
	authFn := r.HTTPAuth()
	sign := SignHTTP(c, func() time.Time { return now })

	req := httptest.NewRequest("PUT", "http://fs/o/uploads/a.tar.bz2", nil)
	sign(req)
	if !authFn(req.Header.Get(HeaderAccessKey), req.Header.Get(HeaderSignature), req) {
		t.Fatal("valid signed request rejected")
	}
	// Replaying the signature on a different path fails.
	req2 := httptest.NewRequest("PUT", "http://fs/o/uploads/other", nil)
	req2.Header = req.Header.Clone()
	if authFn(req2.Header.Get(HeaderAccessKey), req2.Header.Get(HeaderSignature), req2) {
		t.Fatal("signature replay on another path accepted")
	}
}

func TestProfileRoundTrip(t *testing.T) {
	c := Credentials{UserName: "myusername", AccessKey: "BsqJuFUI2ZtK4g1aLXf-OjmML6", SecretKey: "tU08PuKhtR9qozBNn33RcH7p5A"}
	text := FormatProfile(c)
	// Shape matches Listing 3.
	if !strings.Contains(text, "RAI_USER_NAME='myusername'") ||
		!strings.Contains(text, "RAI_ACCESS_KEY='BsqJuFUI2ZtK4g1aLXf-OjmML6'") ||
		!strings.Contains(text, "RAI_SECRET_KEY='tU08PuKhtR9qozBNn33RcH7p5A'") {
		t.Fatalf("profile text:\n%s", text)
	}
	got, err := ParseProfile([]byte(text))
	if err != nil || got != c {
		t.Fatalf("ParseProfile = %+v, %v", got, err)
	}
}

func TestParseProfileVariants(t *testing.T) {
	ok := "# comment\nRAI_USER_NAME=plain\nRAI_ACCESS_KEY=\"dquoted\"\n\nRAI_SECRET_KEY='squoted'\n"
	c, err := ParseProfile([]byte(ok))
	if err != nil || c.UserName != "plain" || c.AccessKey != "dquoted" || c.SecretKey != "squoted" {
		t.Fatalf("variants = %+v, %v", c, err)
	}
	bad := []string{
		"RAI_USER_NAME='x'\n", // missing keys
		"NOEQUALS\n",          // syntax
		"RAI_BOGUS='x'\n",     // unknown key
		"RAI_USER_NAME='a'\nRAI_USER_NAME='b'\nRAI_ACCESS_KEY='k'\nRAI_SECRET_KEY='s'\n", // dup
	}
	for _, s := range bad {
		if _, err := ParseProfile([]byte(s)); !errors.Is(err, ErrProfileSyntax) {
			t.Errorf("ParseProfile(%q) = %v", s, err)
		}
	}
}

func TestParseRoster(t *testing.T) {
	csvData := "firstname,lastname,userid\nAda,Lovelace,alove\nCharles,Babbage,cbabb\n"
	students, err := ParseRoster([]byte(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if len(students) != 2 || students[0].UserID != "alove" || students[1].LastName != "Babbage" {
		t.Fatalf("students = %+v", students)
	}
	// No header is fine too.
	students, err = ParseRoster([]byte("Grace,Hopper,ghopp\n"))
	if err != nil || len(students) != 1 {
		t.Fatalf("headerless = %+v, %v", students, err)
	}
	if _, err := ParseRoster([]byte("a,b,x\nc,d,x\n")); err == nil {
		t.Error("duplicate userid accepted")
	}
	if _, err := ParseRoster([]byte("a,b\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ParseRoster([]byte("a,b,\n")); err == nil {
		t.Error("empty userid accepted")
	}
}

func TestKeyMailerRendersListing3(t *testing.T) {
	reg := NewRegistry()
	out := &Outbox{}
	km := &KeyMailer{Registry: reg, Outbox: out}
	roster := []Student{{FirstName: "Ada", LastName: "Lovelace", UserID: "alove"}}
	issued, err := km.Run(roster)
	if err != nil {
		t.Fatal(err)
	}
	msgs := out.Messages()
	if len(msgs) != 1 {
		t.Fatalf("outbox = %d messages", len(msgs))
	}
	m := msgs[0]
	if m.To != "alove@illinois.edu" {
		t.Errorf("To = %q", m.To)
	}
	if !strings.Contains(m.Body, "Hello Ada Lovelace,") {
		t.Errorf("greeting missing:\n%s", m.Body)
	}
	c := issued["alove"]
	for _, want := range []string{
		"RAI_USER_NAME='" + c.UserName + "'",
		"RAI_ACCESS_KEY='" + c.AccessKey + "'",
		"RAI_SECRET_KEY='" + c.SecretKey + "'",
		".rai.profile",
	} {
		if !strings.Contains(m.Body, want) {
			t.Errorf("email missing %q:\n%s", want, m.Body)
		}
	}
	// The mailed credentials authenticate.
	if _, ok := reg.Lookup(c.AccessKey); !ok {
		t.Error("mailed key not registered")
	}
}

// TestEmailTokenBlockIsAProfile: the token block a student copies out
// of the Listing 3 email is a .rai.profile that parses back to the
// credentials the mailer issued.
func TestEmailTokenBlockIsAProfile(t *testing.T) {
	out := &Outbox{}
	km := &KeyMailer{Registry: NewRegistry(), Outbox: out}
	issued, err := km.Run([]Student{{FirstName: "Ada", LastName: "Lovelace", UserID: "alove"}})
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(out.Messages()[0].Body, "The following are your tokens:\n\n")
	if !ok {
		t.Fatalf("email has no token block:\n%s", out.Messages()[0].Body)
	}
	got, err := ParseProfile([]byte(block))
	if err != nil {
		t.Fatalf("token block does not parse: %v\n%s", err, block)
	}
	if got != issued["alove"] {
		t.Errorf("token block parses to %+v, issued %+v", got, issued["alove"])
	}
}

func TestKeyMailerWholeClass(t *testing.T) {
	// The fall 2016 class had 176 students (paper §VII).
	reg := NewRegistry()
	out := &Outbox{}
	km := &KeyMailer{Registry: reg, Outbox: out}
	var roster []Student
	for i := 0; i < 176; i++ {
		roster = append(roster, Student{FirstName: "S", LastName: "T", UserID: strings.Repeat("x", 1) + string(rune('a'+i%26)) + string(rune('0'+i/26)) + "id"})
	}
	issued, err := km.Run(roster)
	if err != nil {
		t.Fatal(err)
	}
	if len(issued) != 176 || len(out.Messages()) != 176 {
		t.Fatalf("issued %d, mailed %d", len(issued), len(out.Messages()))
	}
	if len(reg.Users()) != 176 {
		t.Fatalf("registry has %d users", len(reg.Users()))
	}
}

func TestIssueTeams(t *testing.T) {
	reg := NewRegistry()
	teams := []Team{
		{Name: "team1", Members: []string{"b", "a"}},
		{Name: "team2", Members: []string{"c"}},
	}
	creds, err := IssueTeams(reg, teams)
	if err != nil {
		t.Fatal(err)
	}
	if len(creds) != 2 || creds["team1"].UserName != "team1" {
		t.Fatalf("creds = %+v", creds)
	}
	if _, err := IssueTeams(reg, []Team{{Name: ""}}); err == nil {
		t.Error("empty team name accepted")
	}
}
