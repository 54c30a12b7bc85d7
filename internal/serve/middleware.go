package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// statusWriter captures the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// endpointOf classifies a request path onto the endpoint-stats key the
// handlers use, "" for paths outside the API surface (health, varz,
// metrics).
func endpointOf(path string) string {
	if !strings.HasPrefix(path, "/v1/datasets") {
		return ""
	}
	switch {
	case strings.HasSuffix(path, "/detect"):
		return "detect"
	case strings.HasSuffix(path, "/save"):
		return "save"
	case strings.HasSuffix(path, "/repair"):
		return "repair"
	case strings.Contains(path, "/tuples"):
		return "tuples"
	default:
		return "datasets"
	}
}

// wrap layers the middleware: request ID assignment, request-scoped trace,
// panic recovery, latency recording and request logging, outermost first.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Request ID: honor the client's (proxies and the retrying client
		// propagate one, correlating attempts of the same logical call),
		// mint otherwise, echo it back either way.
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)

		// API requests get a trace; probe and scrape paths do not, so the
		// ring holds real work, not /metrics polls.
		ep := endpointOf(r.URL.Path)
		var tr *obs.Trace
		if ep != "" {
			tr = obs.NewTrace(id)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.log.Error("serve: panic in handler", "request_id", id,
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if sw.status == 0 {
					// Headers not sent yet: answer a proper 500. Otherwise
					// the response is already on the wire; just cut it off.
					WriteError(sw, http.StatusInternalServerError, errors.New("internal server error"))
				}
			}
			dur := time.Since(start)
			if ep != "" {
				s.endpoints[ep].Latency.Observe(int64(dur))
			}
			if tr != nil {
				s.traces.Add(tr)
				if thr := s.cfg.SlowRequest; thr > 0 && dur >= thr {
					s.log.Warn("serve: slow request", "request_id", id,
						"method", r.Method, "path", r.URL.Path,
						"status", sw.status, "dur", dur.Round(time.Microsecond),
						"spans", tr.Breakdown())
				}
			}
			s.log.Info("serve: request", "request_id", id,
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "dur", dur.Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}
