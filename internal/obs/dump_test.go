package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpFile checks the snapshot file dump round-trips as JSON.
func TestDumpFile(t *testing.T) {
	r := NewRegistry()
	r.NewGauge("depth", "").Set(4)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := r.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if _, ok := decoded["depth"]; !ok {
		t.Error("depth missing from dump")
	}
}
