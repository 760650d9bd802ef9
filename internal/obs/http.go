package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler serves the JSON encoding of snapshot() on every request. snapshot
// is called per request, so the handler always reports live values.
func Handler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// NewMux returns an http.ServeMux exposing the standard observability
// endpoints without touching http.DefaultServeMux:
//
//	/stats          – JSON of snapshot()
//	/metrics        – Prometheus text exposition of collect (omitted if nil)
//	/debug/pprof/…  – the usual pprof profiles
func NewMux(snapshot func() any, collect func(*PromWriter)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/stats", Handler(snapshot))
	if collect != nil {
		mux.Handle("/metrics", PromHandler(collect))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
