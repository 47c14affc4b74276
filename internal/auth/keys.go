package auth

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReadKeys loads a keys file — the JSON array of credentials that
// raiadmin keygen and teamgen write — into a fresh registry. A file
// that does not parse, or that names a user twice, is refused with an
// error naming path.
func ReadKeys(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var creds []Credentials
	if err := json.Unmarshal(data, &creds); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	reg := NewRegistry()
	for _, c := range creds {
		if err := reg.Register(c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return reg, nil
}

// WriteKeys writes every registered credential to path as a keys file,
// sorted by user name and readable by its owner only.
func (r *Registry) WriteKeys(path string) error {
	users := r.Users()
	creds := make([]Credentials, 0, len(users))
	for _, u := range users {
		c, _ := r.LookupUser(u)
		creds = append(creds, c)
	}
	blob, err := json.MarshalIndent(creds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o600)
}
