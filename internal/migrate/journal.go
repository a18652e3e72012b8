package migrate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"scooter/internal/orm"
	"scooter/internal/schema"
	"scooter/internal/specfmt"
	"scooter/internal/store"
)

// The migration journal records applied scripts in the database itself,
// the way production migration tools (ActiveRecord, Flyway, golang-migrate)
// do: re-running an applied script is a no-op, and running a *different*
// script under an already-used name is an error rather than a silent
// re-application.
//
// The journal lives in a reserved collection; the "$" prefix keeps it out
// of the model namespace (Scooter model names are identifiers).

// JournalCollection is the reserved collection holding applied-migration
// records.
const JournalCollection = "$migrations"

// SpecCollection is the reserved collection carrying the authoritative
// specification text. Apply rewrites it whenever a migration's schema
// takes effect, so the spec replicates with the data and a follower
// enforces the same policies without being handed the migration history
// out of band.
const SpecCollection = "$spec"

// Publish makes after the live schema of conn and stores its text in
// SpecCollection. Re-publishing an unchanged spec (a crash-resumed
// migration retracing its commit) writes nothing, so the logged bytes are
// the same however many times a recovery retraces it. A durability
// failure is returned: a spec write a follower may never see must not be
// acknowledged.
func Publish(conn *orm.Conn, after *schema.Schema) error {
	conn.SetSchema(after)
	text := specfmt.Format(after)
	c := conn.DB.Collection(SpecCollection)
	if docs := c.Find(); len(docs) == 0 {
		c.Insert(store.Doc{"spec": text})
	} else if s, _ := docs[0]["spec"].(string); s != text {
		if err := c.Update(docs[0].ID(), store.Doc{"spec": text}); err != nil {
			return err
		}
	}
	return conn.DB.DurabilityErr()
}

// StoredSpec reads the specification text out of a database ("" when none
// was published), without creating the reserved collection.
func StoredSpec(db *store.DB) string {
	c, ok := db.Lookup(SpecCollection)
	if !ok {
		return ""
	}
	docs := c.Find()
	if len(docs) == 0 {
		return ""
	}
	s, _ := docs[0]["spec"].(string)
	return s
}

// JournalEntry describes one applied (or partially applied) migration.
type JournalEntry struct {
	Name      string
	Hash      string // SHA-256 of the script source
	AppliedAt int64  // UNIX seconds
	Commands  int    // total commands in the script
	Applied   int    // commands durably applied so far
	Done      bool   // the whole script completed
	// Watermark is the highest document id the currently executing
	// command's online backfill has durably swept (0 outside a backfill
	// and for stop-the-world runs). A crash mid-backfill resumes the sweep
	// at the first document above it instead of at the start of the
	// collection; command completion resets it.
	Watermark store.ID
}

// scriptHash fingerprints a migration source.
func scriptHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// Journal reads and writes the applied-migration log of a database.
type Journal struct {
	db *store.DB
	// Clock supplies entry timestamps; nil means time.Now. Injected so
	// journal contents (and thus WAL bytes) are deterministic in tests.
	Clock func() time.Time
}

// NewJournal returns the journal of db, stored in JournalCollection.
func NewJournal(db *store.DB) *Journal { return &Journal{db: db} }

func (j *Journal) now() int64 {
	if j.Clock != nil {
		return j.Clock().Unix()
	}
	return time.Now().Unix()
}

func entryFromDoc(d store.Doc) JournalEntry {
	return JournalEntry{
		Name:      asString(d["name"]),
		Hash:      asString(d["hash"]),
		AppliedAt: asInt64(d["appliedAt"]),
		Commands:  int(asInt64(d["commands"])),
		Applied:   int(asInt64(d["applied"])),
		Done:      asBool(d["done"]),
		Watermark: store.ID(asInt64(d["watermark"])),
	}
}

// Lookup returns the entry for a migration name, if present.
func (j *Journal) Lookup(name string) (*JournalEntry, bool) {
	e, _, ok := j.lookupDoc(name)
	return e, ok
}

func (j *Journal) lookupDoc(name string) (*JournalEntry, store.ID, bool) {
	docs := j.db.Collection(JournalCollection).Find(store.Eq("name", name))
	if len(docs) == 0 {
		return nil, store.Nil, false
	}
	e := entryFromDoc(docs[0])
	return &e, docs[0].ID(), true
}

// Entries lists applied migrations in application order.
func (j *Journal) Entries() []JournalEntry {
	docs := j.db.Collection(JournalCollection).Find()
	out := make([]JournalEntry, 0, len(docs))
	for _, d := range docs {
		out = append(out, entryFromDoc(d))
	}
	return out
}

// Status classifies a named script against the journal.
type Status int

// Journal verdicts for a named script.
const (
	// StatusNew means the name has never been applied.
	StatusNew Status = iota
	// StatusApplied means this exact script already ran to completion.
	StatusApplied
	// StatusConflict means a different script ran under this name.
	StatusConflict
	// StatusPartial means this exact script started but did not finish
	// (the process crashed mid-migration); Apply resumes it.
	StatusPartial
)

// Check classifies the (name, source) pair.
func (j *Journal) Check(name, src string) Status {
	entry, ok := j.Lookup(name)
	if !ok {
		return StatusNew
	}
	if entry.Hash != scriptHash(src) {
		return StatusConflict
	}
	if !entry.Done {
		return StatusPartial
	}
	return StatusApplied
}

// Begin opens a journal entry before the first command executes. If an
// unfinished entry for the same script already exists (a crashed run), the
// stored entry is revalidated against the re-parsed script — the hash must
// match and the stored command count and applied watermark must still make
// sense against `commands` — then its id is returned and progress
// continues from Applied. The revalidation guards the resume path against
// a hand-edited journal document (or, in principle, a hash collision):
// before it, a stale `commands` count mis-resumed silently at the wrong
// command. With a durable store attached, the entry is on disk before
// Begin returns.
func (j *Journal) Begin(name, src string, commands int) (store.ID, error) {
	if entry, id, ok := j.lookupDoc(name); ok {
		if entry.Hash != scriptHash(src) {
			return store.Nil, &ErrJournalConflict{Name: name}
		}
		if entry.Commands != commands {
			return store.Nil, &ErrJournalCorrupt{
				Name: name, Stored: entry.Commands, Parsed: commands,
				Detail: "stored command count does not match the re-parsed script",
			}
		}
		if entry.Applied < 0 || entry.Applied > commands {
			return store.Nil, &ErrJournalCorrupt{
				Name: name, Stored: entry.Applied, Parsed: commands,
				Detail: "applied command count is outside the script",
			}
		}
		return id, nil
	}
	id := j.db.Collection(JournalCollection).Insert(store.Doc{
		"name":      name,
		"hash":      scriptHash(src),
		"appliedAt": j.now(),
		"commands":  int64(commands),
		"applied":   int64(0),
		"done":      false,
	})
	return id, j.db.DurabilityErr()
}

// Progress records that the first `applied` commands have executed. The
// journal update is logged after the command's own mutations, so a
// recovered journal never claims more than the data reflects. Completing a
// command resets the backfill watermark: it belonged to the finished
// command's sweep.
func (j *Journal) Progress(id store.ID, applied int) error {
	return j.db.Collection(JournalCollection).Update(id, store.Doc{
		"applied":   int64(applied),
		"watermark": int64(0),
	})
}

// ProgressBackfill checkpoints an online backfill inside a command: every
// document with id <= watermark has been durably populated. Logged after
// the batch's own updates, so a recovered watermark never claims documents
// the data does not reflect.
func (j *Journal) ProgressBackfill(id store.ID, watermark store.ID) error {
	return j.db.Collection(JournalCollection).Update(id, store.Doc{
		"watermark": int64(watermark),
	})
}

// Finish marks the entry complete.
func (j *Journal) Finish(id store.ID, applied int) error {
	return j.db.Collection(JournalCollection).Update(id, store.Doc{
		"applied": int64(applied),
		"done":    true,
	})
}

// ErrJournalConflict reports a name reuse with different content.
type ErrJournalConflict struct {
	Name string
}

func (e *ErrJournalConflict) Error() string {
	return fmt.Sprintf("migration %q was already applied with different content; rename the new script instead of editing an applied one", e.Name)
}

// ErrJournalCorrupt reports a crashed journal entry whose stored metadata
// contradicts the re-parsed script — resuming from it would silently apply
// the wrong commands.
type ErrJournalCorrupt struct {
	Name   string
	Stored int
	Parsed int
	Detail string
}

func (e *ErrJournalCorrupt) Error() string {
	return fmt.Sprintf("migration %q has a corrupt journal entry (%s: stored %d, script %d); refusing to resume",
		e.Name, e.Detail, e.Stored, e.Parsed)
}

func asString(v store.Value) string {
	s, _ := v.(string)
	return s
}

func asInt64(v store.Value) int64 {
	n, _ := v.(int64)
	return n
}

func asBool(v store.Value) bool {
	b, _ := v.(bool)
	return b
}
