package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"delta"
	"delta/internal/server/api"
	"delta/internal/server/store"
)

// checkpointFile is the on-disk form of a suspended job, keyed by the job's
// content address. The request travels with the snapshot so a restarted
// server can resume a job it has never seen: resubmitting the same request
// hashes to the same ID, which names this file.
type checkpointFile struct {
	SchemaVersion int               `json:"schema_version"`
	Request       api.SubmitRequest `json:"request"`
	Snapshot      json.RawMessage   `json:"snapshot"`
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".ckpt.json")
}

// writeCheckpoint persists a suspended job atomically (temp file + rename),
// so a crash mid-write never leaves a truncated checkpoint under the job ID.
func (s *Server) writeCheckpoint(id string, req api.SubmitRequest, snap *delta.Snapshot) error {
	data, err := snap.Encode()
	if err != nil {
		return err
	}
	return s.writeCheckpointRaw(id, req, data)
}

// writeCheckpointRaw persists an already-encoded snapshot — the shared tail
// of local suspension and peer checkpoint handoff.
func (s *Server) writeCheckpointRaw(id string, req api.SubmitRequest, data json.RawMessage) error {
	body, err := json.Marshal(checkpointFile{
		SchemaVersion: api.SchemaVersion,
		Request:       req,
		Snapshot:      data,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	return store.WriteAtomic(s.checkpointPath(id), body)
}

// readCheckpoint loads a suspended job's checkpoint; (nil, nil) when none
// exists. Version-skewed or corrupt files are reported as errors so the
// caller can fall back to a fresh run.
func (s *Server) readCheckpoint(id string) (*checkpointFile, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, nil
	}
	body, err := os.ReadFile(s.checkpointPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cf checkpointFile
	if err := json.Unmarshal(body, &cf); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", id, err)
	}
	if cf.SchemaVersion != api.SchemaVersion {
		return nil, fmt.Errorf("checkpoint %s: schema version %d, want %d: %w",
			id, cf.SchemaVersion, api.SchemaVersion, delta.ErrSnapshotVersion)
	}
	return &cf, nil
}

// removeCheckpoint deletes a resumed job's checkpoint once it completes.
func (s *Server) removeCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := os.Remove(s.checkpointPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.cfg.Logf("delta-served: removing checkpoint %s: %v", id, err)
	}
}

// sweepOrphanedCheckpoints reclaims checkpoints whose content address
// already has a stored result: a crash between completing a job and removing
// its checkpoint — or a suspended job whose result another process finished
// — would otherwise leave *.ckpt.json files behind forever. Runs once at
// startup, before the server accepts work.
func (s *Server) sweepOrphanedCheckpoints() {
	if s.cfg.CheckpointDir == "" || s.results == nil {
		return
	}
	matches, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.ckpt.json"))
	if err != nil || len(matches) == 0 {
		return
	}
	var reclaimed uint64
	for _, path := range matches {
		id := strings.TrimSuffix(filepath.Base(path), ".ckpt.json")
		if !s.results.Has(id) {
			continue
		}
		if err := os.Remove(path); err != nil {
			s.cfg.Logf("delta-served: sweeping checkpoint %s: %v", id, err)
			continue
		}
		reclaimed++
		s.cfg.Logf("delta-served: reclaimed orphaned checkpoint %s (result already stored)", id)
	}
	if reclaimed > 0 {
		s.shared.Count("served.checkpoints.reclaimed", reclaimed)
	}
}

// handleGetCheckpoint serves a suspended job's portable checkpoint so a
// coordinator can hand the job to a peer (GET /v1/simulations/{id}/checkpoint).
func (s *Server) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CheckpointDir == "" {
		api.WriteError(w, http.StatusConflict, "not_suspendable",
			"server runs without a checkpoint directory; checkpoints are disabled")
		return
	}
	id := r.PathValue("id")
	cf, err := s.readCheckpoint(id)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if cf == nil {
		api.WriteError(w, http.StatusNotFound, "no_checkpoint",
			"no checkpoint persisted for this content address")
		return
	}
	s.shared.Count("served.checkpoints.served", 1)
	api.WriteJSON(w, http.StatusOK, api.CheckpointTransfer{
		SchemaVersion: cf.SchemaVersion, ID: id, Request: cf.Request, Snapshot: cf.Snapshot})
}

// handlePutCheckpoint accepts a peer's checkpoint (PUT /v1/checkpoints/{id})
// so a subsequent submission of the same request resumes here from the
// donor's exact quantum boundary. The id must be the content address of the
// carried request and the snapshot must decode — a mismatched upload would
// poison resume-by-address for everyone hashing to it.
func (s *Server) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CheckpointDir == "" {
		api.WriteError(w, http.StatusConflict, "not_suspendable",
			"server runs without a checkpoint directory; checkpoints are disabled")
		return
	}
	id := r.PathValue("id")
	var ct api.CheckpointTransfer
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&ct); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "malformed checkpoint body: "+err.Error())
		return
	}
	if ct.SchemaVersion != api.SchemaVersion {
		api.WriteError(w, http.StatusBadRequest, "schema_version",
			fmt.Sprintf("checkpoint pins schema version %d; this server speaks %d", ct.SchemaVersion, api.SchemaVersion))
		return
	}
	norm, addr, err := ContentAddress(ct.Request)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", err.Error())
		return
	}
	if addr != id || (ct.ID != "" && ct.ID != id) {
		api.WriteError(w, http.StatusBadRequest, "checkpoint_mismatch",
			fmt.Sprintf("request hashes to %s, not %s", addr, id))
		return
	}
	if _, err := delta.DecodeSnapshot(ct.Snapshot); err != nil {
		api.WriteError(w, http.StatusBadRequest, "checkpoint_mismatch", "snapshot does not decode: "+err.Error())
		return
	}
	if err := s.writeCheckpointRaw(id, norm, ct.Snapshot); err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	s.shared.Count("served.checkpoints.received", 1)
	api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
		SchemaVersion: api.SchemaVersion, ID: id, Status: api.StateSuspended})
}
