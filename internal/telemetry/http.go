package telemetry

import (
	"bytes"
	"net/http"
	"net/http/pprof"
	"sync"

	"ddoshield/internal/sim"
)

// LiveServer exposes /metrics (Prometheus text), /metrics.json (JSON
// snapshot) and /trace (chrome-tracing JSON) over HTTP for watching a
// live run.
//
// The simulation world is single-threaded and many registered gauge
// functions read simulator state, so HTTP handlers must never touch the
// registry directly from the server goroutine. Instead the simulation
// thread calls Update at whatever cadence it likes (cmd/ddoshield ticks
// once per simulated second); Update renders everything into byte
// buffers, and handlers serve the latest snapshot under a read lock.
// This keeps live export race-free without slowing the hot path.
type LiveServer struct {
	opts       LiveServerOptions
	mu         sync.RWMutex
	prom       []byte
	json       []byte
	trace      []byte
	profile    []byte
	mitigation []byte
}

// LiveServerOptions tunes the optional endpoints.
type LiveServerOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/, exposing the
	// Go runtime's CPU/heap/goroutine profiles for the host process. Off
	// by default: pprof reveals process internals and belongs only on
	// explicitly requested debug listeners.
	EnablePprof bool
}

// NewLiveServerOptions returns a server with empty snapshots and the given
// options.
func NewLiveServerOptions(opts LiveServerOptions) *LiveServer {
	return &LiveServer{opts: opts}
}

// Update re-renders all three snapshots. Call from the simulation thread.
func (s *LiveServer) Update(now sim.Time, reg *Registry, rec *Recorder) {
	var prom, jsonBuf, trace bytes.Buffer
	_ = WritePrometheus(&prom, reg)
	_ = WriteJSON(&jsonBuf, now, reg)
	_ = WriteChromeTrace(&trace, rec)
	s.mu.Lock()
	s.prom = prom.Bytes()
	s.json = jsonBuf.Bytes()
	s.trace = trace.Bytes()
	s.mu.Unlock()
}

// UpdateProfile publishes the latest simulation profile document (served
// at /profile.json). Kept separate from Update because rendering the
// profile walks the whole topology, which callers may want at a coarser
// cadence than the metrics tick.
func (s *LiveServer) UpdateProfile(data []byte) {
	s.mu.Lock()
	s.profile = data
	s.mu.Unlock()
}

// UpdateMitigation publishes the latest defense scoreboard document
// (served at /mitigation.json). Like UpdateProfile it is republished from
// the simulation thread on its own sim-time cadence.
func (s *LiveServer) UpdateMitigation(data []byte) {
	s.mu.Lock()
	s.mitigation = data
	s.mu.Unlock()
}

func (s *LiveServer) serve(w http.ResponseWriter, contentType string, pick func() []byte) {
	s.mu.RLock()
	body := pick()
	s.mu.RUnlock()
	w.Header().Set("Content-Type", contentType)
	if len(body) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	_, _ = w.Write(body)
}

// Handler returns the HTTP mux serving the snapshots.
func (s *LiveServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.serve(w, "text/plain; version=0.0.4; charset=utf-8", func() []byte { return s.prom })
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		s.serve(w, "application/json", func() []byte { return s.json })
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		s.serve(w, "application/json", func() []byte { return s.trace })
	})
	mux.HandleFunc("/profile.json", func(w http.ResponseWriter, _ *http.Request) {
		s.serve(w, "application/json", func() []byte { return s.profile })
	})
	mux.HandleFunc("/mitigation.json", func(w http.ResponseWriter, _ *http.Request) {
		s.serve(w, "application/json", func() []byte { return s.mitigation })
	})
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
