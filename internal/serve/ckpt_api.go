package serve

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
)

// Checkpoint artifact shipping: workers GET the sweep's shared warm
// state instead of re-warming, and PUT artifacts they generated so the
// rest of the grid (and the server's own local fallback) can resume
// from them. Artifacts are opaque content-addressed blobs here; the
// store validates keys and container headers, and the dispatcher gates
// uploads to keys it actually handed out in leases.

// maxArtifactBytes bounds a PUT body. Artifacts are gzip streams of
// per-window state — tens of megabytes for realistic regimes — so a
// generous fixed cap protects the server without constraining real use.
const maxArtifactBytes = 1 << 30

func (s *Server) handleCkptGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// Reads route through the store the key's lease granted — under
	// tenant isolation the owning tenant's — or else the shared store,
	// which isolation leaves empty: there a key the server never leased
	// names nothing a worker has business fetching.
	st, ok := s.disp.grantedStore(key)
	if !ok {
		st = s.ckpt
	}
	if st == nil {
		writeError(w, http.StatusNotFound, "no artifact %.12s…", key)
		return
	}
	data, err := st.ReadRaw(key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no artifact %.12s…", key)
			return
		}
		writeError(w, http.StatusInternalServerError, "reading artifact: %v", err)
		return
	}
	s.met.ckptBytesShipped.Add(int64(len(data)))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleCkptPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.cfg.CkptDir == "" {
		writeError(w, http.StatusNotFound, "no checkpoint store")
		return
	}
	st, ok := s.disp.grantedStore(key)
	if !ok || st == nil {
		// Only keys the server itself named in a lease are writable:
		// anything else is a confused or hostile client.
		writeError(w, http.StatusForbidden, "artifact key %.12s… was never leased", key)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading artifact body: %v", err)
		return
	}
	if err := st.WriteRaw(key, data); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "artifact rejected: %v", err)
		return
	}
	s.met.ckptBytesShipped.Add(int64(len(data)))
	w.WriteHeader(http.StatusNoContent)
}
