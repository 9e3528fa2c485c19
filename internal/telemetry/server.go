package telemetry

// The debug/telemetry HTTP server: one address serving pprof, metrics,
// health, the expvar-style snapshot, and the live SSE event stream —
// the serving surface the rajaperfd daemon will grow from. Served on
// -metrics-addr.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Server serves the telemetry plane over HTTP. Create with Serve.
type Server struct {
	reg *Registry
	bus *Bus

	ln  net.Listener
	srv *http.Server

	// scrapes counts /metrics requests — itself a telemetry signal.
	scrapes Counter
}

// ServerOptions configures Serve.
type ServerOptions struct {
	// Registry to expose (nil = Default()).
	Registry *Registry
	// Bus streamed on /events (nil = no event stream; /events 404s).
	Bus *Bus
}

// Serve starts the telemetry server on addr (e.g. "localhost:6060";
// host:0 picks a free port — see Addr). The listener is bound
// synchronously, so a nil error means the endpoints are live.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{reg: reg, bus: opts.Bus, ln: ln}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed is expected
	return s, nil
}

// Addr returns the server's bound address (resolving a :0 request).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: in-flight scrapes finish, SSE
// streams close, the listener is released.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.reg.Snapshot()
	WritePrometheus(w, snap) //nolint:errcheck // client went away
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	WriteVars(w, s.reg.Snapshot()) //nolint:errcheck // client went away
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{"status": "ok"}) //nolint:errcheck
}

// handleEvents streams the bus as server-sent events: one `id:`/
// `event:`/`data:` frame per Event, flushed immediately. `?replay=N`
// prefixes up to N recent events so a client joining mid-campaign has
// context. The stream ends when the client disconnects or the server
// shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		http.NotFound(w, r)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replay := 0
	if v := r.URL.Query().Get("replay"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			replay = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := s.bus.Subscribe(64, replay)
	defer sub.Close()

	// A slow heartbeat comment keeps idle connections from being reaped
	// by intermediaries while the campaign is between events.
	keep := time.NewTicker(15 * time.Second)
	defer keep.Stop()

	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keep.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type); err != nil {
				return
			}
			if err := enc.Encode(ev); err != nil { // Encode appends '\n'
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
