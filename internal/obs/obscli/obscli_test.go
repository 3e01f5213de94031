package obscli

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"talon/internal/obs"
)

// TestDebugHandlerMetrics checks /metrics serves the registry as JSON.
func TestDebugHandlerMetrics(t *testing.T) {
	r := obs.NewRegistry()
	r.NewCounter("served_total", "").Add(9)
	srv := httptest.NewServer(DebugHandler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var decoded map[string]struct {
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["served_total"].Value != 9 {
		t.Errorf("served_total: got %v, want 9", decoded["served_total"].Value)
	}
}

// TestDebugHandlerPprof checks the pprof index is wired up.
func TestDebugHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(obs.NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestStartCPUProfile exercises the CPU-profile helper end to end.
func TestStartCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}
