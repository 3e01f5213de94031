package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	rpprof "runtime/pprof"
)

// indentJSON pretty-prints compact JSON.
func indentJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes an indented JSON snapshot of the registry to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	// Re-indent for human consumption; MarshalJSON stays compact for
	// machine readers.
	out, err := indentJSON(b)
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// DumpFile writes the registry snapshot to path; "-" means stdout.
func (r *Registry) DumpFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DebugHandler returns the debug mux: /metrics (registry JSON),
// /debug/vars (expvar) and /debug/pprof/* (profiles).
func (r *Registry) DebugHandler() http.Handler {
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

// ServeDebug starts the debug HTTP server for the Default registry on
// addr (e.g. "localhost:6060"; a ":0" port picks a free one) and returns
// the bound address. The server runs until the process exits. expvar
// publication is enabled as a side effect.
func ServeDebug(addr string) (string, error) {
	PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug listener: %w", err)
	}
	srv := &http.Server{Handler: defaultRegistry.DebugHandler()}
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
			if err := defaultRegistry.DumpFile(metricsPath); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
