package docstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rai/internal/blobstore"
)

var testCtx = context.Background()

// openDisk opens a database journaled to a disk store at dir, as raidb
// -store-root does. Cleanup closes both.
func openDisk(t *testing.T, dir string) *DB {
	t.Helper()
	be, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(testCtx, be, "journal", "rai.journal")
	if err != nil {
		be.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		db.Close()
		be.Close()
	})
	return db
}

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	return openDisk(t, dir), dir
}

// reopen closes db, as a stopping raidb does, and opens its store again.
func reopen(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return openDisk(t, dir)
}

func journalPath(dir string) string { return filepath.Join(dir, "journal", "rai.journal") }

// journalLines returns the journal file's lines, without their newlines.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// contents is every non-empty collection's documents, in scan order.
func contents(t *testing.T, db *DB) map[string][]M {
	t.Helper()
	out := map[string][]M{}
	for _, coll := range db.Collections() {
		docs, err := db.Find(testCtx, coll, M{}, FindOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) > 0 {
			out[coll] = docs
		}
	}
	return out
}

func TestPersistInsertSurvivesRestart(t *testing.T) {
	db, dir := openTemp(t)
	id, err := db.Insert(testCtx, "jobs", M{"user": "team1", "status": "succeeded", "elapsed_s": 4.2})
	if err != nil {
		t.Fatal(err)
	}
	again := reopen(t, db, dir)
	doc, err := again.FindOne(testCtx, "jobs", M{"_id": id})
	if err != nil {
		t.Fatal(err)
	}
	if doc["user"] != "team1" || doc["elapsed_s"] != 4.2 {
		t.Fatalf("replayed doc = %v", doc)
	}
}

func TestPersistUpdateDeleteSurvive(t *testing.T) {
	db, dir := openTemp(t)
	db.Insert(testCtx, "jobs", M{"_id": "a", "status": "running"})
	db.Insert(testCtx, "jobs", M{"_id": "b", "status": "running"})
	if _, err := db.Update(testCtx, "jobs", M{"_id": "a"}, M{"$set": M{"status": "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(testCtx, "jobs", M{"_id": "b"}); err != nil {
		t.Fatal(err)
	}
	again := reopen(t, db, dir)
	doc, err := again.FindOne(testCtx, "jobs", M{"_id": "a"})
	if err != nil || doc["status"] != "succeeded" {
		t.Fatalf("a = %v, %v", doc, err)
	}
	if _, err := again.FindOne(testCtx, "jobs", M{"_id": "b"}); err == nil {
		t.Fatal("deleted doc resurrected by replay")
	}
}

func TestPersistUpsertOverwriteSurvives(t *testing.T) {
	// The ranking overwrite pattern (§V) through restarts.
	db, dir := openTemp(t)
	db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": 1.5}})
	db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": 0.45}})
	again := reopen(t, db, dir)
	if docs, _ := again.Find(testCtx, "rankings", M{}, FindOpts{}); len(docs) != 1 {
		t.Fatalf("rankings rows = %d, want 1", len(docs))
	}
	doc, _ := again.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc["runtime_s"] != 0.45 {
		t.Fatalf("doc = %v", doc)
	}
	// And the id is stable across replay (ranking rows referenced by id).
	id1, _ := doc["_id"].(string)
	third := reopen(t, again, dir)
	doc2, _ := third.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc2["_id"] != id1 {
		t.Fatalf("id changed across replays: %v vs %v", doc2["_id"], id1)
	}
}

// TestPersistCompactShrinksJournal: the journal holds one after-image
// per change until the next open, which rewrites it as the header plus
// one line per live document; appends then follow the rewrite.
func TestPersistCompactShrinksJournal(t *testing.T) {
	db, dir := openTemp(t)
	for i := 0; i < 50; i++ {
		db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": float64(50 - i)}})
	}
	db.Insert(testCtx, "jobs", M{"_id": "gone"})
	db.Delete(testCtx, "jobs", M{})
	if n := len(journalLines(t, dir)); n != 1+50+2 {
		t.Fatalf("journal has %d lines before reopening, want the header and 52 changes", n)
	}
	again := reopen(t, db, dir)
	lines := journalLines(t, dir)
	if len(lines) != 2 || lines[0] != journalFormat || !strings.Contains(lines[1], `"runtime_s":1`) {
		t.Fatalf("reopened journal = %q, want the header and the one live document", lines)
	}
	if _, err := again.Insert(testCtx, "jobs", M{"_id": "post-compact"}); err != nil {
		t.Fatal(err)
	}
	third := reopen(t, again, dir)
	if _, err := third.FindOne(testCtx, "jobs", M{"_id": "post-compact"}); err != nil {
		t.Fatalf("post-compact write lost: %v", err)
	}
	if doc, _ := third.FindOne(testCtx, "rankings", M{"team": "alpha"}); doc["runtime_s"] != 1.0 {
		t.Fatalf("compacted state lost: %v", doc)
	}
}

// writeJournal writes data as the journal of a disk store at a fresh
// directory and returns the directory.
func writeJournal(t *testing.T, data string) string {
	t.Helper()
	dir := t.TempDir()
	be, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	w, err := be.Create(testCtx, "journal", "rai.journal", blobstore.PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openErr(t *testing.T, dir string) error {
	t.Helper()
	be, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	db, err := Open(testCtx, be, "journal", "rai.journal")
	if err == nil {
		db.Close()
	}
	return err
}

// TestOpenPersistentRejectsCorruptJournal: a bad line anywhere but at
// the torn end refuses the open, and leaves the journal as it was.
func TestOpenPersistentRejectsCorruptJournal(t *testing.T) {
	good := `{"coll":"c","id":"a","doc":{"_id":"a"}}` + "\n"
	for name, bad := range map[string]string{
		"not JSON":      "NOT JSON\n",
		"blank":         "\n",
		"bad coll":      `{"coll":"$c","id":"a"}` + "\n",
		"no id":         `{"coll":"c","doc":{"_id":""}}` + "\n",
		"other _id":     `{"coll":"c","id":"a","doc":{"_id":"b"}}` + "\n",
		"doc not a map": `{"coll":"c","id":"a","doc":[1]}` + "\n",
	} {
		data := journalFormat + "\n" + good + bad + good
		dir := writeJournal(t, data)
		if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), "journal line 3") {
			t.Errorf("%s: open = %v, want a refusal naming line 3", name, err)
		}
		if got, _ := os.ReadFile(journalPath(dir)); string(got) != data {
			t.Errorf("%s: a refused open rewrote the journal", name)
		}
	}
	if err := openErr(t, writeJournal(t, "{}\n")); err == nil || !strings.Contains(err.Error(), "not a raidb journal") {
		t.Errorf("headless journal: %v", err)
	}
}

// TestOpenRefusesOpFormat: a journal of the earlier op lines names its
// format in the refusal.
func TestOpenRefusesOpFormat(t *testing.T) {
	dir := writeJournal(t, `{"op":"insert","coll":"c","doc":{"v":1},"id":"x"}`+"\n")
	if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), "op format") {
		t.Fatalf("open of an op-format journal = %v", err)
	}
}

// TestOpenDropsTornTail: an append cut short leaves a last line without
// its newline; the open serves every complete line and the rewrite
// leaves nothing of the torn one.
func TestOpenDropsTornTail(t *testing.T) {
	db, dir := openTemp(t)
	for i := 0; i < 3; i++ {
		if _, err := db.Insert(testCtx, "jobs", M{"_id": fmt.Sprint("j", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"coll":"jobs","id":"j3","doc":{"_id":"j`)
	f.Close()
	again := openDisk(t, dir)
	if docs, _ := again.Find(testCtx, "jobs", M{}, FindOpts{}); len(docs) != 3 {
		t.Fatalf("after a torn append: %d jobs, want the 3 complete ones", len(docs))
	}
	if lines := journalLines(t, dir); len(lines) != 4 || strings.Contains(strings.Join(lines, "\n"), `"j3"`) {
		t.Fatalf("rewritten journal = %q", lines)
	}
}

// TestFailedMutationWritesNothing: a rejected update changes no
// document, and an upsert that would insert a taken _id inserts
// nothing; neither leaves a journal line.
func TestFailedMutationWritesNothing(t *testing.T) {
	db, dir := openTemp(t)
	db.Insert(testCtx, "c", M{"_id": "a", "k": "x", "n": 1.0})
	db.Insert(testCtx, "c", M{"_id": "b", "k": "x", "n": "one"})
	before := journalLines(t, dir)
	if _, err := db.Update(testCtx, "c", M{"k": "x"}, M{"$set": M{"seen": true}, "$inc": M{"n": 1}}); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("update = %v, want ErrBadUpdate", err)
	}
	if _, err := db.UpsertMany(testCtx, []Upsert{{Coll: "c", Filter: M{"_id": "b", "k": "y"}, Update: M{"$set": M{"seen": true}}}}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("bulk = %v, want ErrDuplicateID", err)
	}
	if docs, _ := db.Find(testCtx, "c", M{"seen": true}, FindOpts{}); len(docs) != 0 {
		t.Errorf("a failed update changed %v", docs)
	}
	if after := journalLines(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a failed update wrote %q", after[len(before):])
	}
}

// failingBackend refuses every append write once armed.
type failingBackend struct {
	blobstore.Backend
	fail bool
}

type failingWriter struct {
	io.WriteCloser
	be *failingBackend
}

func (w failingWriter) Write(p []byte) (int, error) {
	if w.be.fail {
		return 0, errors.New("disk full")
	}
	return w.WriteCloser.Write(p)
}

func (b *failingBackend) Append(ctx context.Context, bucket, key string) (io.WriteCloser, error) {
	w, err := b.Backend.Append(ctx, bucket, key)
	return failingWriter{w, b}, err
}

// TestJournalWriteFailureRefusesWrites: once a journal write fails, the
// call reports it and every later mutation is refused, so no line can
// follow a torn one; reads go on. Close refuses writes the same way.
func TestJournalWriteFailureRefusesWrites(t *testing.T) {
	be := &failingBackend{Backend: blobstore.NewMemory()}
	defer be.Close()
	db, err := Open(testCtx, be, "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(testCtx, "c", M{"_id": "a"}); err != nil {
		t.Fatal(err)
	}
	be.fail = true
	if _, err := db.Insert(testCtx, "c", M{"_id": "b"}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("insert on a failing disk = %v", err)
	}
	be.fail = false
	if _, err := db.Upsert(testCtx, "c", M{"_id": "c"}, M{"$set": M{"v": 1}}); err == nil {
		t.Fatal("a write after a failed journal write was accepted")
	}
	if _, err := db.FindOne(testCtx, "c", M{"_id": "a"}); err != nil {
		t.Errorf("read after a failed journal write: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(testCtx, "c", M{}); !errors.Is(err, errClosed) {
		t.Errorf("delete on a closed database = %v", err)
	}
}

// TestJournalOnSharedBackend runs the journal over a caller-owned
// memory backend that outlives the journal handle.
func TestJournalOnSharedBackend(t *testing.T) {
	be := blobstore.NewMemory()
	defer be.Close()

	p, err := Open(testCtx, be, "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(testCtx, "jobs", M{"_id": "j1", "status": "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The backend outlives the journal handle; reopening replays.
	again, err := Open(testCtx, be, "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	doc, err := again.FindOne(testCtx, "jobs", M{"_id": "j1"})
	if err != nil || doc["status"] != "queued" {
		t.Fatalf("replayed doc = %v, %v", doc, err)
	}
	if st, err := be.Stat(testCtx, "journal", "rai.journal"); err != nil || st.Size == 0 {
		t.Errorf("journal blob = %+v, %v", st, err)
	}
}

// TestJournalReplayEqualsLive: concurrent writers drawing random
// inserts, updates, upserts, bulk upserts and deletes over a few ids
// leave a journal whose replay is the state they left in memory, with
// the same documents, ids and scan order in every collection. The lines
// are written under the lock that orders the changes, so no
// interleaving can reorder them; run it under -race -count=20.
func TestJournalReplayEqualsLive(t *testing.T) {
	db, dir := openTemp(t)
	const writers, steps = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gen{rand.New(rand.NewSource(int64(408 + w)))}
			for i := 0; i < steps; i++ {
				coll := []string{"jobs", "rankings"}[g.Intn(2)]
				// Outcomes are ignored: duplicate ids are part of the
				// draw, and must leave nothing.
				switch g.Intn(6) {
				case 0:
					db.Insert(testCtx, coll, g.doc())
				case 1:
					db.Update(testCtx, coll, g.filter(), g.update())
				case 2:
					db.Upsert(testCtx, coll, g.filter(), g.update())
				case 3:
					var ops []Upsert
					for n := 1 + g.Intn(3); n > 0; n-- {
						ops = append(ops, Upsert{Coll: []string{"jobs", "rankings"}[g.Intn(2)], Filter: g.filter(), Update: g.update()})
					}
					db.UpsertMany(testCtx, ops)
				case 4:
					db.Delete(testCtx, coll, g.filter())
				default:
					db.Upsert(testCtx, coll, M{"_id": g.id()}, M{"$set": M{"n": float64(i)}})
				}
			}
		}(w)
	}
	wg.Wait()
	live := contents(t, db)
	if len(live) == 0 {
		t.Fatal("the writers left nothing to replay")
	}
	again := reopen(t, db, dir)
	if replayed := contents(t, again); !reflect.DeepEqual(replayed, live) {
		t.Fatalf("replay differs from live:\nreplayed %v\nlive     %v", replayed, live)
	}
}

// FuzzJournal feeds arbitrary bytes in as the journal. Open never
// panics, and a journal that opens reopens, after its rewrite, to the
// identical state.
func FuzzJournal(f *testing.F) {
	be := blobstore.NewMemory()
	db, err := Open(testCtx, be, "journal", "rai.journal")
	if err != nil {
		f.Fatal(err)
	}
	db.Insert(testCtx, "jobs", M{"_id": "j1", "user": "alice", "tags": []any{"x"}})
	db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": 0.5, "meta.k": "v"}})
	db.Update(testCtx, "jobs", M{"_id": "j1"}, M{"$set": M{"n": 1}})
	db.Insert(testCtx, "jobs", M{"_id": "j2"})
	db.Delete(testCtx, "jobs", M{"_id": "j2"})
	db.Close()
	rc, _, err := be.Open(testCtx, "journal", "rai.journal")
	if err != nil {
		f.Fatal(err)
	}
	journal, _ := io.ReadAll(rc)
	rc.Close()
	be.Close()
	for i := 0; i <= len(journal); i++ {
		f.Add(journal[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		be := blobstore.NewMemory()
		defer be.Close()
		w, err := be.Create(testCtx, "journal", "rai.journal", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := Open(testCtx, be, "journal", "rai.journal")
		if err != nil {
			return
		}
		first := contents(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(testCtx, be, "journal", "rai.journal")
		if err != nil {
			t.Fatalf("the rewrite of a journal that opened does not open: %v", err)
		}
		defer again.Close()
		if second := contents(t, again); !reflect.DeepEqual(second, first) {
			t.Fatalf("reopened to %v, first open served %v", second, first)
		}
	})
}
