package docstore

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"rai/internal/blobstore"
)

// Durability: a PersistentDB wraps DB with an append-only journal so the
// raidb daemon survives restarts — the role MongoDB's storage engine
// played in the original deployment. Every mutation is recorded as one
// JSON line; opening a journal replays it into a fresh DB.
//
// The journal is a blob in a blobstore.Backend (bucket/key), written
// through the backend's Append and rewritten via an atomic Create at
// compaction. Running on the disk backend this inherits its
// crash story: a torn compaction never replaces the journal (temp file
// + rename), and a crash mid-append is reconciled from the file size at
// the next open. The format is deliberately simple and append-only:
// grading and auditing care about never losing submission records
// (paper §IV: the database holds "execution times, run-times, and logs
// ... useful for grading or any other coursework auditing process"),
// not about random-access update performance.

// JournalBucket is the bucket OpenPersistent keeps the journal blob in.
const JournalBucket = "journal"

// journalEntry is one logged mutation.
type journalEntry struct {
	Op     string `json:"op"` // insert | update | upsert | delete | drop
	Coll   string `json:"coll"`
	Doc    M      `json:"doc,omitempty"`
	Filter M      `json:"filter,omitempty"`
	Update M      `json:"update,omitempty"`
	// ID pins the document id chosen at execution time so replay is
	// byte-identical (Insert generates random ids otherwise).
	ID string `json:"id,omitempty"`
}

// PersistentDB is a DB whose mutations are journaled to a blob backend.
type PersistentDB struct {
	*DB
	mu     sync.Mutex
	be     blobstore.Backend
	bucket string
	key    string
	w      io.WriteCloser // open append writer; nil once closed
	bw     *bufio.Writer
	size   int64
	ownBE  bool // Close also closes the backend (OpenPersistent path)
}

// OpenPersistent opens (or creates) a journal-backed database persisted
// under path's directory, replaying any existing journal. A flat
// journal file left at path by a pre-blobstore version is migrated into
// the backend layout on first open. The directory should be dedicated
// to the journal. ctx bounds the open (migration and replay), not the
// database's lifetime.
func OpenPersistent(ctx context.Context, path string) (*PersistentDB, error) {
	be, err := blobstore.NewDisk(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	key := filepath.Base(path)
	if st, err := os.Stat(path); err == nil && st.Mode().IsRegular() {
		if _, err := be.Adopt(ctx, JournalBucket, key, path); err != nil {
			be.Close()
			return nil, fmt.Errorf("docstore: migrating flat journal: %w", err)
		}
	}
	p, err := OpenPersistentBackend(ctx, be, JournalBucket, key)
	if err != nil {
		be.Close()
		return nil, err
	}
	p.ownBE = true
	return p, nil
}

// OpenPersistentBackend opens a journal-backed database over an
// existing backend (or mount table), replaying the blob at bucket/key
// if present. The caller keeps ownership of the backend (Close leaves
// it open). The journal blob should live on a backend without a default
// TTL — an expiring journal is data loss.
func OpenPersistentBackend(ctx context.Context, be blobstore.Backend, bucket, key string) (*PersistentDB, error) {
	db := New()
	var size int64
	rc, info, err := be.Open(ctx, bucket, key)
	switch {
	case err == nil:
		rerr := replay(ctx, rc, db)
		rc.Close()
		if rerr != nil {
			return nil, rerr
		}
		size = info.Size
	case errors.Is(err, blobstore.ErrNotFound), errors.Is(err, blobstore.ErrNoBucket):
		// Fresh journal; the first append creates it.
	default:
		return nil, err
	}
	w, err := be.Append(ctx, bucket, key)
	if err != nil {
		return nil, err
	}
	return &PersistentDB{
		DB: db, be: be, bucket: bucket, key: key,
		w: w, bw: bufio.NewWriter(w), size: size,
	}, nil
}

// JournalSize reports the journal's current size in bytes.
func (p *PersistentDB) JournalSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// replay applies every journal line to db.
func replay(ctx context.Context, r io.Reader, db *DB) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("docstore: journal line %d: %w", line, err)
		}
		if err := apply(ctx, db, &e); err != nil {
			return fmt.Errorf("docstore: journal line %d (%s %s): %w", line, e.Op, e.Coll, err)
		}
	}
	return sc.Err()
}

func apply(ctx context.Context, db *DB, e *journalEntry) error {
	var err error
	switch e.Op {
	case "insert":
		doc := e.Doc
		if e.ID != "" {
			doc["_id"] = e.ID
		}
		_, err = db.Insert(ctx, e.Coll, doc)
	case "update":
		_, err = db.Update(ctx, e.Coll, e.Filter, e.Update)
	case "upsert":
		// An upsert that inserted gets the id it generated the first time.
		_, err = db.upsert(ctx, e.Coll, e.Filter, e.Update, e.ID)
	case "delete":
		_, err = db.Delete(ctx, e.Coll, e.Filter)
	case "drop":
		db.Drop(e.Coll)
	default:
		err = fmt.Errorf("unknown journal op %q", e.Op)
	}
	return err
}

// log writes one entry and flushes it through to the backend (on disk,
// straight to the O_APPEND file).
func (p *PersistentDB) log(e *journalEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return fmt.Errorf("docstore: journal closed")
	}
	if _, err := p.bw.Write(append(raw, '\n')); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.size += int64(len(raw)) + 1
	return nil
}

// Insert journals and applies an insert.
func (p *PersistentDB) Insert(ctx context.Context, coll string, doc any) (string, error) {
	id, err := p.DB.Insert(ctx, coll, doc)
	if err != nil {
		return "", err
	}
	d, _ := normalize(doc)
	if err := p.log(&journalEntry{Op: "insert", Coll: coll, Doc: d, ID: id}); err != nil {
		return id, err
	}
	return id, nil
}

// Update journals and applies an update.
func (p *PersistentDB) Update(ctx context.Context, coll string, filter, update M) (int, error) {
	n, err := p.DB.Update(ctx, coll, filter, update)
	if err != nil {
		return n, err
	}
	if n > 0 {
		if err := p.log(&journalEntry{Op: "update", Coll: coll, Filter: filter, Update: update}); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Upsert journals and applies an upsert.
func (p *PersistentDB) Upsert(ctx context.Context, coll string, filter, update M) (string, error) {
	id, err := p.DB.Upsert(ctx, coll, filter, update)
	if err != nil {
		return id, err
	}
	if err := p.log(&journalEntry{Op: "upsert", Coll: coll, Filter: filter, Update: update, ID: id}); err != nil {
		return id, err
	}
	return id, nil
}

// Delete journals and applies a delete.
func (p *PersistentDB) Delete(ctx context.Context, coll string, filter M) (int, error) {
	n, err := p.DB.Delete(ctx, coll, filter)
	if err != nil {
		return n, err
	}
	if n > 0 {
		if err := p.log(&journalEntry{Op: "delete", Coll: coll, Filter: filter}); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Drop journals and applies a collection drop.
func (p *PersistentDB) Drop(coll string) error {
	p.DB.Drop(coll)
	return p.log(&journalEntry{Op: "drop", Coll: coll})
}

// Close flushes and closes the journal (committing its size to the
// backend index), and releases the backend when this PersistentDB
// opened it.
func (p *PersistentDB) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w != nil {
		if err := p.bw.Flush(); err != nil {
			return err
		}
		if err := p.w.Close(); err != nil {
			return err
		}
		p.w = nil
	}
	if p.ownBE && p.be != nil {
		err := p.be.Close()
		p.be = nil
		return err
	}
	return nil
}

// Compact rewrites the journal as a sequence of plain inserts of the
// current state (dropping dead updates/deletes), shrinking long-lived
// journals. The rewrite goes through the backend's Create, so on disk
// it is an atomic replacement: a crash mid-compaction leaves the old
// journal untouched.
func (p *PersistentDB) Compact(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return fmt.Errorf("docstore: journal closed")
	}
	// Refuse a dead ctx while the journal is still appending, not after.
	if err := ctx.Err(); err != nil {
		return err
	}
	// Stop appending before the rewrite: the Create commit replaces the
	// blob underneath an open O_APPEND descriptor otherwise.
	if err := p.bw.Flush(); err != nil {
		return err
	}
	if err := p.w.Close(); err != nil {
		return err
	}
	p.w = nil
	w, err := p.be.Create(ctx, p.bucket, p.key, blobstore.PutOptions{})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var n int64
	for _, coll := range p.DB.Collections() {
		docs, err := p.DB.Find(ctx, coll, M{}, FindOpts{})
		if err != nil {
			w.Abort()
			return err
		}
		for _, doc := range docs {
			id, _ := doc["_id"].(string)
			raw, err := json.Marshal(&journalEntry{Op: "insert", Coll: coll, Doc: doc, ID: id})
			if err != nil {
				w.Abort()
				return err
			}
			raw = append(raw, '\n')
			if _, err := bw.Write(raw); err != nil {
				w.Abort()
				return err
			}
			n += int64(len(raw))
		}
	}
	if err := bw.Flush(); err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Resume appending onto the compacted blob.
	app, err := p.be.Append(ctx, p.bucket, p.key)
	if err != nil {
		return err
	}
	p.w = app
	p.bw = bufio.NewWriter(app)
	p.size = n
	return nil
}
