package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// statusRecorder captures the status code a handler writes so the
// access log and latency histogram can label the request's outcome.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// middleware wraps the API mux with per-request observability: a
// request id (generated, or propagated from an X-Request-Id the caller
// sent), the HTTP latency histogram, and a structured access log.
// Scrape and probe endpoints log at Debug so a 10s Prometheus interval
// doesn't fill the log with its own heartbeat.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = fmt.Sprintf("r-%08d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", reqID)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.stats.HTTPRequest.Observe(elapsed.Seconds())
		logf := s.log.Info
		if isScrapePath(r.URL.Path) {
			logf = s.log.Debug
		}
		logf("http request",
			"request_id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", elapsed.Milliseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

// isScrapePath reports paths polled by machines rather than called by
// clients.
func isScrapePath(p string) bool {
	return p == "/metrics" || p == "/healthz" || p == "/readyz" ||
		strings.HasPrefix(p, "/debug/pprof")
}
