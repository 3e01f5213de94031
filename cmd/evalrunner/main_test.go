package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestCampaignStudyScratchStore runs the campaign study without -store
// and with a relative -out: the artifacts land under -out relative to
// the working directory, the report names the default store, and no
// shard directory is left behind, neither in the working directory nor
// in the temporary directory.
func TestCampaignStudyScratchStore(t *testing.T) {
	wd, tmp := t.TempDir(), t.TempDir()
	t.Chdir(wd)
	t.Setenv("TMPDIR", tmp)
	for name, value := range map[string]string{
		"exp": "campaign", "fidelity": "quick", "trials": "400", "out": "artifacts",
	} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
	if flagSet("store") {
		t.Fatal("-store is set; the test needs the default")
	}
	if err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(wd, "artifacts", "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sc struct {
		Config struct {
			Dir string `json:"dir"`
		} `json:"config"`
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(b, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Config.Dir != "campaign-shards" || sc.Shards == 0 {
		t.Errorf("campaign.json names store %q with %d shards, want campaign-shards and some shards", sc.Config.Dir, sc.Shards)
	}
	for _, dir := range []string{wd, tmp} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() != "artifacts" {
				t.Errorf("%s left behind in %s", e.Name(), dir)
			}
		}
	}
}
