package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves the Prometheus text exposition of the merged snapshot.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.RenderProm()))
	})
}

// ServeMux builds the full fused observability surface: /metrics
// (Prometheus text) and /debug/pprof/* (the stdlib profiler endpoints),
// without touching http.DefaultServeMux.
func (r *Registry) ServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
