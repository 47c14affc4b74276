package auth

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/template"
)

// Student is one roster row ({firstname,lastname,userid}, paper §VI).
type Student struct {
	FirstName string
	LastName  string
	UserID    string
}

// ParseRoster reads the comma-separated class roster. A header row of
// exactly "firstname,lastname,userid" is skipped if present.
func ParseRoster(data []byte) ([]Student, error) {
	r := csv.NewReader(strings.NewReader(string(data)))
	r.FieldsPerRecord = 3
	r.TrimLeadingSpace = true
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("auth: roster: %w", err)
	}
	var out []Student
	seen := map[string]bool{}
	for i, row := range rows {
		if i == 0 && strings.EqualFold(row[0], "firstname") {
			continue
		}
		s := Student{
			FirstName: strings.TrimSpace(row[0]),
			LastName:  strings.TrimSpace(row[1]),
			UserID:    strings.TrimSpace(row[2]),
		}
		if s.UserID == "" {
			return nil, fmt.Errorf("auth: roster row %d: empty userid", i+1)
		}
		if seen[s.UserID] {
			return nil, fmt.Errorf("auth: roster row %d: duplicate userid %q", i+1, s.UserID)
		}
		seen[s.UserID] = true
		out = append(out, s)
	}
	return out, nil
}

// EmailTemplate is the authorization email (paper Listing 3,
// abbreviated exactly as published). Its token block is the student's
// .rai.profile, rendered by FormatProfile.
const EmailTemplate = `Hello {{.FirstName}} {{.LastName}},

For the Applied Parallel Programming project,
we will not be using WebGPU. The RAI submission
requires authentication tokens to be present
in your $HOME/.rai.profile (Linux/OSX) or
%HOME%/.rai.profile (Windows) file.

The following are your tokens:

{{.Profile}}`

// emailSubject is the authorization email's subject line.
const emailSubject = "RAI authorization keys for the course project"

var emailTemplate = template.Must(template.New("email").Parse(EmailTemplate))

// Email is a rendered message waiting in the outbox.
type Email struct {
	To      string
	Subject string
	Body    string
}

// Outbox collects rendered emails. Production would hand these to an
// SMTP relay; the reproduction records them for inspection, which is
// also how the tests assert on Listing 3.
type Outbox struct {
	mu     sync.Mutex
	emails []Email
}

// Send appends a message.
func (o *Outbox) Send(e Email) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.emails = append(o.emails, e)
}

// Messages returns a copy of the queued messages.
func (o *Outbox) Messages() []Email {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Email(nil), o.emails...)
}

// KeyMailer drives the §VI workflow: roster in, registered credentials
// plus one templated email per student out.
type KeyMailer struct {
	Registry *Registry
	Outbox   *Outbox
	// Domain forms the To address as userid@Domain.
	Domain string
}

// emailData is the template context.
type emailData struct {
	FirstName, LastName, Profile string
}

// Run issues credentials for every roster student and queues their
// email. It returns the issued credentials keyed by userid.
func (k *KeyMailer) Run(roster []Student) (map[string]Credentials, error) {
	domain := k.Domain
	if domain == "" {
		domain = "illinois.edu"
	}
	issued := make(map[string]Credentials, len(roster))
	for _, s := range roster {
		c, err := k.Registry.Issue(s.UserID)
		if err != nil {
			return issued, err
		}
		issued[s.UserID] = c
		var body strings.Builder
		if err := emailTemplate.Execute(&body, emailData{
			FirstName: s.FirstName, LastName: s.LastName, Profile: FormatProfile(c),
		}); err != nil {
			return issued, fmt.Errorf("auth: rendering email for %s: %w", s.UserID, err)
		}
		k.Outbox.Send(Email{To: s.UserID + "@" + domain, Subject: emailSubject, Body: body.String()})
	}
	return issued, nil
}

// Team groups students under one shared credential (the project is done
// in teams of 2–4, paper §I).
type Team struct {
	Name    string
	Members []string // userids
}

// IssueTeams registers one credential per team and returns them keyed by
// team name; member lists are preserved (sorted) for grading exports.
func IssueTeams(reg *Registry, teams []Team) (map[string]Credentials, error) {
	out := make(map[string]Credentials, len(teams))
	for _, t := range teams {
		if t.Name == "" {
			return nil, fmt.Errorf("auth: team with empty name")
		}
		c, err := reg.Issue(t.Name)
		if err != nil {
			return nil, err
		}
		sort.Strings(t.Members)
		out[t.Name] = c
	}
	return out, nil
}
