package controlplane

// The control plane's HTTP surface. Stdlib only: Go 1.22 ServeMux
// method+wildcard patterns for routing, chunked JSON over
// text/event-stream for the progress feed, and a hand-rolled
// Prometheus text writer (metrics.go) for /metrics.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"afex/internal/store"
)

// Server exposes a Manager over HTTP.
type Server struct {
	m   *Manager
	srv *http.Server
	ln  net.Listener
}

// NewHandler returns the control-plane HTTP handler for m:
//
//	POST /v1/sessions              submit a SessionSpec, 201 + Status
//	GET  /v1/sessions              list session statuses
//	GET  /v1/sessions/{id}         one session's Status (+ store stats)
//	GET  /v1/sessions/{id}/events  SSE stream of Status snapshots
//	GET  /v1/sessions/{id}/journal the state directory's raw journal
//	GET  /v1/sessions/{id}/report  the sealed result's report text
//	POST /v1/sessions/{id}/stop    request the session to stop
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/pprof/             net/http/pprof profiles (CPU, heap,
//	                               mutex, goroutine, …) for the whole
//	                               control-plane process
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec SessionSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("controlplane: bad spec: %w", err))
			return
		}
		s, err := m.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.Status(false))
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		list := m.List()
		out := make([]Status, 0, len(list))
		for _, s := range list {
			out = append(out, s.Status(false))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		writeJSON(w, http.StatusOK, s.Status(true))
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/events", withSession(m, serveEvents))
	mux.HandleFunc("GET /v1/sessions/{id}/journal", withSession(m, serveJournal))
	mux.HandleFunc("GET /v1/sessions/{id}/report", withSession(m, serveReport))
	mux.HandleFunc("POST /v1/sessions/{id}/stop", withSession(m, func(w http.ResponseWriter, r *http.Request, s *Session) {
		s.Stop()
		writeJSON(w, http.StatusOK, s.Status(false))
	}))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, m)
	})
	// Profiling endpoints: the default pprof handlers, mounted
	// explicitly (the control plane never uses http.DefaultServeMux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// withSession resolves the {id} path wildcard, 404ing unknown IDs.
func withSession(m *Manager, h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("controlplane: no session %q", r.PathValue("id")))
			return
		}
		h(w, r, s)
	}
}

// serveEvents streams the session's Status as server-sent events, one
// per tick (?interval=, default 1s, floor 100ms), plus a final event
// when the session seals — the full status, store stats included, that
// Client.Wait returns; the stream then ends. Pairs with
// `curl -N .../events`.
func serveEvents(w http.ResponseWriter, r *http.Request, s *Session) {
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("controlplane: interval: %w", err))
			return
		}
		if d < 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		interval = d
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("controlplane: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func() bool {
		st := s.Status(false)
		if st.State != StateRunning {
			st = s.Status(true) // the sealed status carries the store stats too
		}
		raw, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	if !emit() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.Done():
			emit()
			return
		case <-t.C:
			if !emit() {
				return
			}
		}
	}
}

// serveJournal streams the raw bytes of the session's live journal
// segment — the artifact a replay or audit wants, byte-identical to the
// on-disk file. 404 for store-less sessions.
func serveJournal(w http.ResponseWriter, r *http.Request, s *Session) {
	if s.Spec.StateDir == "" {
		httpError(w, http.StatusNotFound, fmt.Errorf("controlplane: session %s has no state directory", s.ID))
		return
	}
	path, err := store.JournalPath(s.Spec.StateDir)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("controlplane: %w", err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, path, time.Time{}, f)
}

// serveReport renders the sealed result's top-K report (?top=, default
// 10). 409 while the session is still running — the report ranks a
// finished hunt.
func serveReport(w http.ResponseWriter, r *http.Request, s *Session) {
	res, _ := s.Result()
	if res == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("controlplane: session %s still running", s.ID))
		return
	}
	top := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("controlplane: bad top %q", v))
			return
		}
		top = n
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, res.Report(top))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Serve starts the control-plane HTTP server on addr (":0" picks an
// ephemeral port; see Addr).
func Serve(addr string, m *Manager) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %w", err)
	}
	s := &Server{m: m, ln: ln, srv: &http.Server{Handler: NewHandler(m)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops serving and seals every hosted session.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.m.StopAll()
	return err
}
