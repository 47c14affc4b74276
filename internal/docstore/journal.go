package docstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"rai/internal/blobstore"
)

// Durability: a DB opened over a blobstore.Backend keeps a journal
// there, so raidb survives restarts — the role MongoDB's storage engine
// played in the original deployment. Grading and auditing care about
// never losing submission records (paper §IV: the database holds
// "execution times, run-times, and logs ... useful for grading or any
// other coursework auditing process"), not about random-access update
// performance, so the format is a blob of JSON lines.
//
// The first line names the format. Every other line is the after-image
// of one document a mutation committed: {"coll","id","doc"} for a
// document written, {"coll","id"} for one removed. The lines are noted
// at the commit points themselves (an insert, each document an update
// changes, each document a delete removes) and reach the backend in one
// write per call, before the call releases db.mu. So the journal holds
// the changes in the order the lock gave them, and a call returns only
// after its lines reach the backend (there is no fsync). A mutation that
// fails changes nothing and writes nothing.
//
// Replay sets or removes documents by id, in file order; it never runs
// the query engine, so a later change to the engine's semantics cannot
// make an old journal unreadable. A last line without its newline is an
// append cut short (kill -9, a full disk) and is dropped; any other bad
// line refuses the open. Open then rewrites the blob as the header plus
// one line per live document through the backend's Create, which on
// disk is an atomic rename: a journal restarts bounded by live data,
// and no torn bytes remain for the next append to follow.

// journalFormat is the journal's first line.
const journalFormat = `{"format":"raidb after-images 1"}`

// journalLine is one document's after-image; a nil Doc removes it.
type journalLine struct {
	Coll string `json:"coll"`
	ID   string `json:"id"`
	Doc  M      `json:"doc,omitempty"`
}

// journal is a DB's log on its backend. Every method is a no-op on the
// nil journal of a memory-only DB. Callers hold db.mu.
type journal struct {
	w       io.WriteCloser // the blob's append writer
	pending bytes.Buffer   // lines the mutation in progress has noted
	enc     *json.Encoder  // writes to pending
	err     error          // once set, every mutation is refused with it
}

var errClosed = errors.New("docstore: database closed")

// Open returns a database journaled to bucket/key of be. It replays the
// blob there, if any, and rewrites it compacted; every later change is
// appended to it. The blob should live on a backend without a default
// TTL: an expiring journal is data loss. Close releases the journal; be
// stays the caller's to close. ctx bounds the open, not the database's
// lifetime.
func Open(ctx context.Context, be blobstore.Backend, bucket, key string) (*DB, error) {
	db := New()
	rc, _, err := be.Open(ctx, bucket, key)
	switch {
	case err == nil:
		err = db.replay(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
	case errors.Is(err, blobstore.ErrNotFound), errors.Is(err, blobstore.ErrNoBucket):
		// A fresh journal: the rewrite below creates it.
	default:
		return nil, err
	}
	w, err := be.Create(ctx, bucket, key, blobstore.PutOptions{})
	if err != nil {
		return nil, err
	}
	if err := db.writeLive(w); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	app, err := be.Append(ctx, bucket, key)
	if err != nil {
		return nil, err
	}
	db.j = &journal{w: app}
	db.j.enc = json.NewEncoder(&db.j.pending)
	return db, nil
}

// replay applies the journal read from r to db, which nothing else
// holds yet.
func (db *DB) replay(r io.Reader) error {
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // what is left has no newline: a torn append, dropped
		}
		if err != nil {
			return err
		}
		if n == 1 {
			if err := checkFormat(raw); err != nil {
				return err
			}
			continue
		}
		var l journalLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("docstore: journal line %d: %w", n, err)
		}
		if err := db.restore(l); err != nil {
			return fmt.Errorf("docstore: journal line %d: %w", n, err)
		}
	}
	// restore leaves removed entries in the scan order; drop them once.
	for _, c := range db.collections {
		c.order = slices.DeleteFunc(c.order, func(e *entry) bool { return c.docs[e.id] != e })
	}
	return nil
}

// checkFormat accepts the journal's first line, and names the old op
// format when that is what it finds.
func checkFormat(raw []byte) error {
	if string(bytes.TrimSuffix(raw, []byte("\n"))) == journalFormat {
		return nil
	}
	var old struct {
		Op string `json:"op"`
	}
	if json.Unmarshal(raw, &old) == nil && old.Op != "" {
		return errors.New("docstore: the journal is in the op format of earlier raidb versions, which this version cannot replay")
	}
	return errors.New("docstore: not a raidb journal (unknown first line)")
}

// restore sets or removes one document by id. Nothing has queried db
// yet, so there are no indexes to keep; removed entries stay in the
// scan order until replay drops them.
func (db *DB) restore(l journalLine) error {
	c, err := db.coll(l.Coll)
	if err != nil {
		return err
	}
	if l.ID == "" {
		return errors.New("docstore: journal line without an id")
	}
	if l.Doc != nil && l.Doc["_id"] != l.ID {
		return fmt.Errorf("docstore: journal line for %q holds a document with _id %v", l.ID, l.Doc["_id"])
	}
	switch e := c.docs[l.ID]; {
	case l.Doc == nil:
		delete(c.docs, l.ID)
	case e != nil:
		e.doc = l.Doc
	default:
		c.add(l.ID, l.Doc)
	}
	return nil
}

// writeLive writes the header and one line per live document to w:
// collections by name, each in scan order, which is how replay rebuilds
// them.
func (db *DB) writeLive(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	fmt.Fprintln(bw, journalFormat)
	for _, name := range db.Collections() {
		for _, e := range db.collections[name].order {
			if err := enc.Encode(journalLine{Coll: name, ID: e.id, Doc: e.doc}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// note records the after-image of the document id in coll (nil for a
// removal) for the mutation in progress.
func (j *journal) note(coll, id string, doc M) {
	if j == nil {
		return
	}
	// A stored document holds only JSON values (normalize), so it
	// always encodes.
	_ = j.enc.Encode(journalLine{Coll: coll, ID: id, Doc: doc})
}

// commit writes the noted lines to the backend in one write. A write
// that fails fails its call and refuses every later mutation: the
// journal may now end in a torn line, which the next Open drops, and no
// line may follow it. The failed call's change stays in memory until
// the restart that replays what reached the backend.
func (j *journal) commit() error {
	if j == nil || j.pending.Len() == 0 {
		return nil
	}
	_, err := j.w.Write(j.pending.Bytes())
	j.pending.Reset()
	if err != nil {
		j.err = fmt.Errorf("docstore: journal write failed; writes are refused until restart: %w", err)
		return j.err
	}
	return nil
}

// refused reports why no mutation may start: the journal failed or the
// database closed.
func (j *journal) refused() error {
	if j == nil {
		return nil
	}
	return j.err
}

// Close closes the journal; later mutations fail and reads still work.
// Closing a memory-only DB does nothing.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.j == nil || db.j.err == errClosed {
		return nil
	}
	db.j.err = errClosed
	return db.j.w.Close()
}
