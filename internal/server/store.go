package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"tracex"
	"tracex/internal/store"
	"tracex/wire"
)

// This file implements the persistent signature store's HTTP surface:
//
//	GET /v1/signatures/{key}  — fetch a stored signature
//	PUT /v1/signatures/{key}  — import a signature into the store
//
// {key} is either a 64-hex content hash (exact object fetch) or the
// human-readable triple "app@cores@machine" (e.g. "uh3d@512@bluewaters"),
// which GET resolves to the most recently stored matching signature and
// PUT checks against the inline signature's own identity. Both routes
// answer 501 no_store on a daemon started without a store directory.
//
// GET is the serving fast path: it never takes compute admission (a read
// must not queue behind a multi-second collection), resolves the key
// against the store index only, and serves marshalled bodies from a
// content-addressed LRU — objects are immutable per hash, so a cached
// body can never be stale for its key. Only cache misses touch the disk,
// bounded by their own small semaphore.

// storeKeySep separates the fields of a human-readable store key.
const storeKeySep = "@"

// parseTripleKey splits "app@cores@machine" into its fields.
func parseTripleKey(key string) (app string, cores int, machine string, err error) {
	parts := strings.Split(key, storeKeySep)
	if len(parts) != 3 {
		return "", 0, "", badRequestf("store key %q is neither a 64-hex content hash nor app@cores@machine", key)
	}
	cores, err = strconv.Atoi(parts[1])
	if err != nil || cores <= 0 {
		return "", 0, "", badRequestf("store key %q has a non-positive core count", key)
	}
	return parts[0], cores, parts[2], nil
}

// isContentHash reports whether key looks like a hex SHA-256.
func isContentHash(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// store returns the engine's persistent store or the errNoStore failure.
func (s *Server) store() (*tracex.SignatureStore, error) {
	st := s.eng.Store()
	if st == nil {
		return nil, fmt.Errorf("server: %w: the daemon was started without a store directory", errNoStore)
	}
	return st, nil
}

// storeGet implements GET /v1/signatures/{key} — the read fast path.
func (s *Server) storeGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.store()
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := r.PathValue("key")

	// Resolve the key to its content identity via the index alone; no
	// object bytes move yet.
	var entry store.Entry
	hash := key
	if isContentHash(key) {
		// An object can outlive its manifest entries; such a fetch still
		// works, with zero metadata (entry stays unreferenced).
		entry, _ = st.FindHash(key)
		entry.Hash = key
	} else {
		app, cores, machine, err := parseTripleKey(key)
		if err != nil {
			s.writeError(w, err)
			return
		}
		var ok bool
		entry, ok = st.LatestEntry(app, machine, cores)
		if !ok {
			// Redirect shard mode: a remote-owned key this node has never
			// cached is the owner's to serve.
			if s.redirectToOwner(w, r, key) {
				return
			}
			s.writeError(w, notFoundf("no stored signature for %s", key))
			return
		}
		hash = entry.Hash
	}

	body, err := s.readSignatureBody(r, st, hash, entry)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeRaw(w, http.StatusOK, body)
}

// readSignatureBody returns the marshalled StoredSignatureResponse for one
// content hash, from the body LRU when possible. The cache key carries the
// manifest metadata (unix, bytes) alongside the hash so a re-Put of the
// same content under fresh metadata is a distinct entry.
func (s *Server) readSignatureBody(r *http.Request, st *tracex.SignatureStore, hash string, entry store.Entry) ([]byte, error) {
	read := func() ([]byte, error) {
		// Misses hit the disk; bound them separately from compute
		// admission so a burst of distinct keys cannot starve predicts,
		// and predicts cannot starve reads.
		select {
		case s.storeReads <- struct{}{}:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
		defer func() { <-s.storeReads }()
		sig, err := st.GetHash(hash)
		if err != nil {
			return nil, notFoundf("no stored signature %s: %v", hash, err)
		}
		resp := &wire.StoredSignatureResponse{
			App:       sig.App,
			Machine:   sig.Machine,
			Cores:     sig.CoreCount,
			Hash:      hash,
			Bytes:     entry.Bytes,
			Unix:      entry.Unix,
			Signature: sig,
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, fmt.Errorf("server: encoding stored signature: %w", err)
		}
		return b, nil
	}
	if s.bodyCache == nil {
		s.readMisses.Inc()
		return read()
	}
	cacheKey := hash + "|" + strconv.FormatInt(entry.Unix, 10) + "|" + strconv.FormatInt(entry.Bytes, 10)
	body, hit, err := s.bodyCache.Do(r.Context(), cacheKey, read)
	if hit {
		s.readHits.Inc()
	} else {
		s.readMisses.Inc()
	}
	return body, err
}

// storePut implements PUT /v1/signatures/{key}: import an inline signature
// (collected elsewhere, or extrapolated) into the store so later predicts
// warm-start from disk.
func (s *Server) storePut(w http.ResponseWriter, r *http.Request) {
	if _, err := s.store(); err != nil {
		s.writeError(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, badRequestf("reading body: %v", err))
		return
	}
	var sig tracex.Signature
	if err := wire.DecodeStrict(bytes.NewReader(body), &sig); err != nil {
		s.writeError(w, badRequestf("decoding signature: %v", err))
		return
	}
	if err := sig.Validate(); err != nil {
		s.writeError(w, err)
		return
	}
	app, cores, machine, err := parseTripleKey(r.PathValue("key"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if app != sig.App || cores != sig.CoreCount || machine != sig.Machine {
		s.writeError(w, badRequestf("store key %s does not match the signature (%s%s%d%s%s)",
			r.PathValue("key"), sig.App, storeKeySep, sig.CoreCount, storeKeySep, sig.Machine))
		return
	}
	// Import resolves the machine too; checking it here makes an unknown
	// machine a 404 before the request takes an admission slot.
	if _, err := lookupMachine(sig.Machine); err != nil {
		s.writeError(w, err)
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		if errors.Is(err, errOverloaded) {
			s.rejected.Inc()
		}
		s.writeError(w, err)
		return
	}
	defer release()
	entry, err := s.eng.Import(&sig)
	if err != nil {
		s.writeError(w, fmt.Errorf("server: storing signature: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, &wire.StorePutResponse{
		App:     entry.App,
		Machine: entry.Machine,
		Cores:   entry.Cores,
		Hash:    entry.Hash,
		Bytes:   entry.Bytes,
	})
}
