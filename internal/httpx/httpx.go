// Package httpx is the HTTP front end shared by the single-node server
// (internal/server) and the cluster router (internal/router), so the two
// tiers cannot drift apart. Front owns the route table, the metrics
// middleware, /healthz, /metrics, the default plan, the adaptive loop and
// the graceful Serve; the codec and the plan validation are shared too.
// The conventions:
//
//   - every response body is JSON; errors are {"error": "..."} with a
//     meaningful 4xx/5xx status, never a bare 500 with a text body;
//   - a known path with the wrong method answers 405 with an Allow
//     header instead of falling through to 404;
//   - request bodies are size-capped and reject unknown fields, so a
//     typo'd parameter is a 400, not a silent no-op;
//   - a listener's connections must finish their headers within
//     ReadHeaderTimeout.
//
// docs/api.md documents the conventions as seen from the wire.
package httpx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// ReadHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection and its goroutine forever.
const ReadHeaderTimeout = 10 * time.Second

// NewServer returns the http.Server every listener of the project runs h
// on, with ReadHeaderTimeout set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// methodDispatch routes by HTTP method and answers anything else with 405
// plus an Allow header — the contract HTTP clients and load balancers
// expect, instead of a fall-through 404 that hides the typo'd verb.
func methodDispatch(methods map[string]http.HandlerFunc) http.Handler {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := methods[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			Error(w, http.StatusMethodNotAllowed,
				"method %s not allowed (allow: %s)", r.Method, allow)
			return
		}
		h(w, r)
	})
}

// DecodeBody parses a JSON body with a size cap, rejecting unknown
// fields; it writes the 400 response itself and reports success.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, dst interface{}) bool {
	return decodeStrict(w, http.MaxBytesReader(w, r.Body, maxBytes), dst)
}

// decodeStrict decodes one JSON value from src into dst with unknown
// fields disallowed, answering 400 on failure.
func decodeStrict(w http.ResponseWriter, src io.Reader, dst interface{}) bool {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		Error(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// WriteJSON writes v as the JSON response body under status.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

// Error writes a structured JSON error body {"error": "..."} under
// status.
func Error(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
