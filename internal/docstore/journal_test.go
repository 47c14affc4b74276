package docstore

import (
	"os"
	"path/filepath"
	"testing"
)

func openTemp(t *testing.T) (*PersistentDB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rai.journal")
	db, err := OpenPersistent(testCtx, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, path
}

func reopen(t *testing.T, db *PersistentDB, path string) *PersistentDB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenPersistent(testCtx, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { again.Close() })
	return again
}

func TestPersistInsertSurvivesRestart(t *testing.T) {
	db, path := openTemp(t)
	id, err := db.Insert(testCtx, "jobs", M{"user": "team1", "status": "succeeded", "elapsed_s": 4.2})
	if err != nil {
		t.Fatal(err)
	}
	again := reopen(t, db, path)
	doc, err := again.FindOne(testCtx, "jobs", M{"_id": id})
	if err != nil {
		t.Fatal(err)
	}
	if doc["user"] != "team1" || doc["elapsed_s"] != 4.2 {
		t.Fatalf("replayed doc = %v", doc)
	}
}

func TestPersistUpdateDeleteSurvive(t *testing.T) {
	db, path := openTemp(t)
	db.Insert(testCtx, "jobs", M{"_id": "a", "status": "running"})
	db.Insert(testCtx, "jobs", M{"_id": "b", "status": "running"})
	if _, err := db.Update(testCtx, "jobs", M{"_id": "a"}, M{"$set": M{"status": "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(testCtx, "jobs", M{"_id": "b"}); err != nil {
		t.Fatal(err)
	}
	again := reopen(t, db, path)
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
	db, path := openTemp(t)
	db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": 1.5}})
	db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": 0.45}})
	again := reopen(t, db, path)
	if n, _ := again.Count(testCtx, "rankings", M{}); n != 1 {
		t.Fatalf("rankings rows = %d, want 1", n)
	}
	doc, _ := again.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc["runtime_s"] != 0.45 {
		t.Fatalf("doc = %v", doc)
	}
	// And the id is stable across replay (ranking rows referenced by id).
	id1, _ := doc["_id"].(string)
	third := reopen(t, again, path)
	doc2, _ := third.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc2["_id"] != id1 {
		t.Fatalf("id changed across replays: %v vs %v", doc2["_id"], id1)
	}
}

func TestPersistDropSurvives(t *testing.T) {
	db, path := openTemp(t)
	db.Insert(testCtx, "tmp", M{"x": 1})
	if err := db.Drop("tmp"); err != nil {
		t.Fatal(err)
	}
	again := reopen(t, db, path)
	if n, _ := again.Count(testCtx, "tmp", M{}); n != 0 {
		t.Fatalf("dropped collection has %d docs after replay", n)
	}
}

func TestPersistCompactShrinksJournal(t *testing.T) {
	db, path := openTemp(t)
	for i := 0; i < 50; i++ {
		db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime_s": float64(50 - i)}})
	}
	before := db.JournalSize()
	if err := db.Compact(testCtx); err != nil {
		t.Fatal(err)
	}
	after := db.JournalSize()
	if after >= before {
		t.Errorf("compact did not shrink: %d -> %d bytes", before, after)
	}
	// State intact, and the journal still works after compaction.
	doc, err := db.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if err != nil || doc["runtime_s"] != 1.0 {
		t.Fatalf("post-compact doc = %v, %v", doc, err)
	}
	db.Insert(testCtx, "jobs", M{"_id": "post-compact"})
	again := reopen(t, db, path)
	if _, err := again.FindOne(testCtx, "jobs", M{"_id": "post-compact"}); err != nil {
		t.Fatalf("post-compact write lost: %v", err)
	}
	if doc, _ := again.FindOne(testCtx, "rankings", M{"team": "alpha"}); doc["runtime_s"] != 1.0 {
		t.Fatalf("compacted state lost: %v", doc)
	}
}

func TestOpenPersistentRejectsCorruptJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.journal")
	os.WriteFile(path, []byte("{\"op\":\"insert\",\"coll\":\"c\",\"doc\":{}}\nNOT JSON\n"), 0o600)
	if _, err := OpenPersistent(testCtx, path); err == nil {
		t.Fatal("corrupt journal accepted")
	}
}

func TestPersistentDBReadsDelegate(t *testing.T) {
	db, _ := openTemp(t)
	db.Insert(testCtx, "c", M{"v": 1.0})
	db.Insert(testCtx, "c", M{"v": 2.0})
	docs, err := db.Find(testCtx, "c", M{"v": M{"$gt": 1.5}}, FindOpts{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("find = %v, %v", docs, err)
	}
	if n, _ := db.Count(testCtx, "c", M{}); n != 2 {
		t.Fatalf("count = %d", n)
	}
}
