// Package store is a disk-backed content-addressed result store: one JSON
// file per completed job, named by the job's content address. Both
// delta-served workers (Config.ResultDir) and the fleet coordinator
// (fabric.Config.ResultDir) persist finished results here, so duplicate
// submissions dedupe against completed work across process restarts — the
// durable tail of the single-flight cache.
//
// Only sound results are stored: jobs that reached "done" with a complete
// (non-partial) result. Failed, canceled and partial outcomes are transient
// — a resubmission should rerun them, not replay the failure.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"delta/internal/server/api"
)

// envelope is the on-disk form: schema-versioned like every other durable
// artifact, so a format change is detected instead of misread.
type envelope struct {
	SchemaVersion int     `json:"schema_version"`
	Job           api.Job `json:"job"`
}

// Store is a content-addressed result directory. Writes are atomic (temp
// file + rename) and reads tolerate concurrent writers; the zero value is
// unusable — call Open.
type Store struct {
	dir string
	mu  sync.Mutex // serializes Put per process; cross-process safety is the rename
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Storable reports whether a job document is worth persisting: done, with a
// complete result.
func Storable(doc api.Job) bool {
	return doc.Status == api.StateDone && doc.Result != nil && !doc.Result.Partial
}

// Put persists a completed job under its content address. Non-storable
// documents are rejected so transient failures can never be replayed as
// cached results.
func (s *Store) Put(doc api.Job) error {
	if !Storable(doc) {
		return fmt.Errorf("store: job %s is %s, only complete done results are stored", doc.ID, doc.Status)
	}
	body, err := json.Marshal(envelope{SchemaVersion: api.SchemaVersion, Job: doc})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return WriteAtomic(s.path(doc.ID), body)
}

// WriteAtomic writes body to path through a temporary file in the same
// directory that is renamed over path once written and closed, so a crash
// mid-write never leaves a truncated file under the final name. It does not
// fsync: the rename is atomic, not durable.
func WriteAtomic(path string, body []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Get loads a stored result; ok is false when none exists. Corrupt or
// version-skewed files return an error (the caller decides whether to rerun).
func (s *Store) Get(id string) (api.Job, bool, error) {
	body, err := os.ReadFile(s.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return api.Job{}, false, nil
	}
	if err != nil {
		return api.Job{}, false, err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return api.Job{}, false, fmt.Errorf("store: result %s: %w", id, err)
	}
	if env.SchemaVersion != api.SchemaVersion {
		return api.Job{}, false, fmt.Errorf("store: result %s: schema version %d, want %d",
			id, env.SchemaVersion, api.SchemaVersion)
	}
	return env.Job, true, nil
}

// Has reports whether a sound result exists for the content address.
func (s *Store) Has(id string) bool {
	doc, ok, err := s.Get(id)
	return err == nil && ok && Storable(doc)
}

// Len counts stored results.
func (s *Store) Len() int {
	ids, _ := s.IDs()
	return len(ids)
}

// IDs lists the stored content addresses, sorted by directory order.
func (s *Store) IDs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".tmp") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	return ids, nil
}
