// Package auth implements RAI's authentication machinery: per-student
// (or per-team) access/secret key pairs, HMAC request signing, the class
// roster workflow that generates and emails keys (paper §VI "Sending
// Authorization Keys", Listing 3), and the $HOME/.rai.profile file the
// client reads.
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rai/internal/clock"
)

// Credentials uniquely identify a student or team.
type Credentials struct {
	UserName  string `json:"user_name"`
	AccessKey string `json:"access_key"`
	SecretKey string `json:"secret_key"`
}

// Errors reported by this package.
var (
	ErrUnknownAccessKey = errors.New("auth: unknown access key")
	ErrBadSignature     = errors.New("auth: signature mismatch")
	ErrStaleRequest     = errors.New("auth: request timestamp outside allowed skew")
	ErrProfileSyntax    = errors.New("auth: malformed .rai.profile")
	ErrDuplicateUser    = errors.New("auth: user already registered")
)

// keyAlphabet matches the shape of the paper's example keys
// (BsqJuFUI2ZtK4g1aLXf-OjmML6): letters, digits, '-'.
const keyAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-"

// keyLen is the generated key length (as in Listing 3).
const keyLen = 26

// GenerateKey returns a fresh random key.
func GenerateKey() string { return keyFrom(rand.Reader) }

// keyFrom draws a key from src.
func keyFrom(src io.Reader) string {
	var b [keyLen]byte
	if _, err := io.ReadFull(src, b[:]); err != nil {
		panic("auth: reading a key: " + err.Error())
	}
	for i := range b {
		b[i] = keyAlphabet[int(b[i])%len(keyAlphabet)]
	}
	return string(b[:])
}

// NewCredentials mints a key pair for userName.
func NewCredentials(userName string) Credentials {
	return Credentials{UserName: userName, AccessKey: GenerateKey(), SecretKey: GenerateKey()}
}

// Registry stores issued credentials and validates requests. It is safe
// for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byAK   map[string]Credentials
	byUser map[string]Credentials
	// MaxSkew bounds |now - request date| during verification.
	MaxSkew time.Duration
	now     func() time.Time
	keys    io.Reader // what Issue draws keys from
}

// NewRegistry returns an empty registry with a 15-minute skew allowance.
func NewRegistry() *Registry {
	return &Registry{
		byAK:    map[string]Credentials{},
		byUser:  map[string]Credentials{},
		MaxSkew: 15 * time.Minute,
		now:     clock.Real{}.Now,
		keys:    rand.Reader,
	}
}

// SetClock overrides the verification time source.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// SetRand makes Issue draw keys from src instead of crypto/rand: a
// simulation passes a seeded source, so the keys it prints repeat.
func (r *Registry) SetRand(src io.Reader) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = src
}

// Register adds credentials; registering the same user twice is an error.
func (r *Registry) Register(c Credentials) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byUser[c.UserName]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, c.UserName)
	}
	r.byAK[c.AccessKey] = c
	r.byUser[c.UserName] = c
	return nil
}

// Issue mints and registers credentials for userName.
func (r *Registry) Issue(userName string) (Credentials, error) {
	r.mu.Lock()
	c := Credentials{UserName: userName, AccessKey: keyFrom(r.keys), SecretKey: keyFrom(r.keys)}
	r.mu.Unlock()
	if err := r.Register(c); err != nil {
		return Credentials{}, err
	}
	return c, nil
}

// LookupUser finds credentials by user name.
func (r *Registry) LookupUser(userName string) (Credentials, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byUser[userName]
	return c, ok
}

// Lookup finds credentials by access key.
func (r *Registry) Lookup(accessKey string) (Credentials, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byAK[accessKey]
	return c, ok
}

// Users lists registered user names, sorted.
func (r *Registry) Users() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byUser))
	for u := range r.byUser {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// ---- request signing ----

// Header names attached to signed requests.
const (
	HeaderAccessKey = "X-RAI-Access-Key"
	HeaderSignature = "X-RAI-Signature"
	HeaderDate      = "X-RAI-Date"
)

// signaturePayload canonicalizes the signed content.
func signaturePayload(method, path, date string, bodyHash []byte) []byte {
	return []byte(method + "\n" + path + "\n" + date + "\n" + hex.EncodeToString(bodyHash))
}

// Sign computes the request signature over (method, path, date, body).
func Sign(secretKey, method, path, date string, body []byte) string {
	bodySum := sha256.Sum256(body)
	mac := hmac.New(sha256.New, []byte(secretKey))
	mac.Write(signaturePayload(method, path, date, bodySum[:]))
	return hex.EncodeToString(mac.Sum(nil))
}

// SignRequest attaches credentials and a signature to an HTTP request.
// The body must be provided separately because http.Request bodies are
// single-read.
func SignRequest(req *http.Request, c Credentials, body []byte, now time.Time) {
	date := now.UTC().Format(time.RFC3339)
	req.Header.Set(HeaderAccessKey, c.AccessKey)
	req.Header.Set(HeaderDate, date)
	req.Header.Set(HeaderSignature, Sign(c.SecretKey, req.Method, req.URL.Path, date, body))
}

// Verify checks a signature against the registry.
func (r *Registry) Verify(accessKey, signature, method, path, date string, body []byte) error {
	c, ok := r.Lookup(accessKey)
	if !ok {
		return ErrUnknownAccessKey
	}
	ts, err := time.Parse(time.RFC3339, date)
	if err != nil {
		return fmt.Errorf("%w: bad date %q", ErrStaleRequest, date)
	}
	r.mu.RLock()
	now := r.now()
	skew := r.MaxSkew
	r.mu.RUnlock()
	if d := now.Sub(ts); d > skew || d < -skew {
		return fmt.Errorf("%w: %v from now", ErrStaleRequest, d)
	}
	want := Sign(c.SecretKey, method, path, date, body)
	if subtle.ConstantTimeCompare([]byte(want), []byte(signature)) != 1 {
		return ErrBadSignature
	}
	return nil
}

// VerifyToken implements the lighter check used on non-HTTP paths (queue
// messages): the token is HMAC(secret, payload).
func (r *Registry) VerifyToken(accessKey, token string, payload []byte) error {
	c, ok := r.Lookup(accessKey)
	if !ok {
		return ErrUnknownAccessKey
	}
	mac := hmac.New(sha256.New, []byte(c.SecretKey))
	mac.Write(payload)
	want := hex.EncodeToString(mac.Sum(nil))
	if subtle.ConstantTimeCompare([]byte(want), []byte(token)) != 1 {
		return ErrBadSignature
	}
	return nil
}

// Token produces the queue-message token for payload.
func Token(c Credentials, payload []byte) string {
	mac := hmac.New(sha256.New, []byte(c.SecretKey))
	mac.Write(payload)
	return hex.EncodeToString(mac.Sum(nil))
}

// HTTPAuth adapts the registry to the AuthFunc shape the objstore and
// docstore HTTP handlers accept. Simulation deployments can instead pass
// nil to run open.
func (r *Registry) HTTPAuth() func(accessKey, signature string, req *http.Request) bool {
	return func(accessKey, signature string, req *http.Request) bool {
		// The HTTP services sign over method+path+date with an empty body
		// hash: bodies are large archives already integrity-checked by
		// ETag, and the signature's job is authentication.
		err := r.Verify(accessKey, signature, req.Method, req.URL.Path, req.Header.Get(HeaderDate), nil)
		return err == nil
	}
}

// SignHTTP returns a client-side signing hook matching HTTPAuth.
func SignHTTP(c Credentials, now func() time.Time) func(req *http.Request) {
	return func(req *http.Request) {
		SignRequest(req, c, nil, now())
	}
}

// ---- .rai.profile ----

// ProfileFileName is the per-user credentials file (paper Listing 3).
const ProfileFileName = ".rai.profile"

// FormatProfile renders credentials in .rai.profile syntax.
func FormatProfile(c Credentials) string {
	return fmt.Sprintf("RAI_USER_NAME='%s'\nRAI_ACCESS_KEY='%s'\nRAI_SECRET_KEY='%s'\n",
		c.UserName, c.AccessKey, c.SecretKey)
}

// ParseProfile reads .rai.profile content.
func ParseProfile(data []byte) (Credentials, error) {
	var c Credentials
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return Credentials{}, fmt.Errorf("%w: line %d: %q", ErrProfileSyntax, i+1, line)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		v = strings.Trim(v, `'"`)
		switch k {
		case "RAI_USER_NAME":
			c.UserName = v
		case "RAI_ACCESS_KEY":
			c.AccessKey = v
		case "RAI_SECRET_KEY":
			c.SecretKey = v
		default:
			return Credentials{}, fmt.Errorf("%w: line %d: unknown key %q", ErrProfileSyntax, i+1, k)
		}
		if seen[k] {
			return Credentials{}, fmt.Errorf("%w: duplicate key %q", ErrProfileSyntax, k)
		}
		seen[k] = true
	}
	if c.UserName == "" || c.AccessKey == "" || c.SecretKey == "" {
		return Credentials{}, fmt.Errorf("%w: missing RAI_USER_NAME/RAI_ACCESS_KEY/RAI_SECRET_KEY", ErrProfileSyntax)
	}
	return c, nil
}
