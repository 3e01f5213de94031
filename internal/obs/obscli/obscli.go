// Package obscli is the CLIs' side of observability: the shared
// -metrics/-debug/-cpuprofile flags, the debug HTTP server (/metrics,
// /debug/vars, /debug/pprof) and the CPU profile. It is kept apart from
// internal/obs so that the library packages, which register their metrics
// there, do not link the HTTP stack; only cmd/ imports it.
package obscli

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	rpprof "runtime/pprof"
	"sync"

	"talon/internal/obs"
)

// DebugHandler returns the debug mux over r: /metrics (registry JSON),
// /debug/vars (expvar) and /debug/pprof/* (profiles).
func DebugHandler(r *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// expvarOnce guards against double expvar publication (expvar.Publish
// panics on duplicate names).
var expvarOnce sync.Once

// PublishExpvar exposes the Default registry as the expvar variable
// "talon_metrics", visible on /debug/vars of any expvar-serving mux.
// Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("talon_metrics", expvar.Func(func() any {
			return obs.Default().Snapshot()
		}))
	})
}

// ServeDebug starts the debug HTTP server for the Default registry on
// addr (e.g. "localhost:6060"; a ":0" port picks a free one) and returns
// the bound address. The server runs until the process exits. expvar
// publication is enabled as a side effect.
func ServeDebug(addr string) (string, error) {
	PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obscli: debug listener: %w", err)
	}
	srv := &http.Server{Handler: DebugHandler(obs.Default())}
	//lint:allow goroutinescope -- process-lifetime debug server, fire-and-forget by design
	go srv.Serve(ln) //nolint:errcheck // best-effort background server
	return ln.Addr().String(), nil
}

// StartCPUProfile begins writing a CPU profile to path and returns the
// function that stops profiling and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		rpprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// HookCLI wires the standard observability flags of the repo's CLIs
// (-metrics, -debug, -cpuprofile) against the Default registry: it
// starts the debug server and the CPU profile immediately and returns a
// cleanup that stops the profile and dumps the metrics snapshot. Empty
// strings disable the corresponding feature; the returned cleanup is
// always non-nil and safe to defer.
func HookCLI(metricsPath, debugAddr, profilePath string) (cleanup func() error, err error) {
	var stopProfile func() error
	if debugAddr != "" {
		bound, err := ServeDebug(debugAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: debug server on http://%s (/metrics, /debug/pprof)\n", bound)
	}
	if profilePath != "" {
		stopProfile, err = StartCPUProfile(profilePath)
		if err != nil {
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		if stopProfile != nil {
			firstErr = stopProfile()
		}
		if metricsPath != "" {
			if err := obs.Default().DumpFile(metricsPath); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
