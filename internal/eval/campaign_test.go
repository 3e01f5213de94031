package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestCampaignRecordReplay is the acceptance run of the out-of-core
// campaign: record once, replay at two worker counts, and require a
// byte-identical scorecard with zero selection drift.
func TestCampaignRecordReplay(t *testing.T) {
	p := quickStudy(t).Platform
	cfg := CampaignConfig{
		Dir:             t.TempDir(),
		Trials:          800,
		M:               8,
		RecordsPerShard: 200,
		BlockRecords:    64,
		Workers:         1,
	}
	ctx := context.Background()
	shards, err := RecordCampaign(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(shards))
	}
	var recorded uint64
	for _, sh := range shards {
		recorded += sh.Header.Records
	}
	if recorded != 800 {
		t.Fatalf("recorded %d trials, want 800", recorded)
	}

	serial := cfg
	serial.Workers = 1
	sc1, err := ReplayCampaign(ctx, p, serial)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Workers = 4
	scN, err := ReplayCampaign(ctx, p, wide)
	if err != nil {
		t.Fatal(err)
	}

	b1, err := sc1.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bN, err := scN.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, bN) {
		t.Fatalf("scorecard JSON differs between -workers 1 and -workers 4:\n%s\n---\n%s", b1, bN)
	}

	if sc1.Total.Trials != 800 {
		t.Fatalf("replayed %d trials, want 800", sc1.Total.Trials)
	}
	if sc1.Total.Drift != 0 {
		t.Fatalf("selection drift = %d, want 0 (replay must recompute the recorded selections)", sc1.Total.Drift)
	}
	// Deep-blockage draws can lose every probe, so a few hard failures
	// are expected — but they must stay rare and replay identically.
	if sc1.Total.Failures > sc1.Total.Trials/10 {
		t.Fatalf("select failures = %d of %d trials, want < 10%%", sc1.Total.Failures, sc1.Total.Trials)
	}
	// The seed split must be disjoint and exhaustive.
	if got := sc1.InSample.Trials + sc1.OutOfSample.Trials; got != sc1.Total.Trials {
		t.Fatalf("in-sample %d + out-of-sample %d != total %d",
			sc1.InSample.Trials, sc1.OutOfSample.Trials, sc1.Total.Trials)
	}
	if sc1.InSample.Trials == 0 || sc1.OutOfSample.Trials == 0 {
		t.Fatalf("degenerate split: in-sample %d, out-of-sample %d",
			sc1.InSample.Trials, sc1.OutOfSample.Trials)
	}
	if len(sc1.Benchmarks) == 0 {
		t.Fatal("scorecard has no benchdiff entries")
	}
	if !strings.Contains(sc1.Table(), "out-of-sample") {
		t.Errorf("Table missing out-of-sample section:\n%s", sc1.Table())
	}
	if s := sc1.Summary(); !strings.Contains(s, "drift 0") {
		t.Errorf("Summary missing drift: %q", s)
	}
}

// TestCampaignRecordOverwritesStaleShards: a shorter re-record of the
// same basename must not leave trials of the previous campaign behind.
func TestCampaignRecordOverwritesStaleShards(t *testing.T) {
	p := quickStudy(t).Platform
	cfg := CampaignConfig{
		Dir:             t.TempDir(),
		Trials:          400,
		M:               6,
		RecordsPerShard: 100,
		BlockRecords:    32,
		Workers:         1,
	}
	ctx := context.Background()
	if _, err := RecordCampaign(ctx, p, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Trials = 200
	cfg.RecordsPerShard = 100
	shards, err := RecordCampaign(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("shards after re-record = %d, want 2", len(shards))
	}
	sc, err := ReplayCampaign(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Total.Trials != 200 {
		t.Fatalf("replayed %d trials after re-record, want 200", sc.Total.Trials)
	}
}

// TestStudyRegistry pins the registry surface: names are unique, every
// canonical study resolves, the order is stable, and unknown names
// produce a helpful error.
func TestStudyRegistry(t *testing.T) {
	want := []string{
		"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"headline", "ablations", "retraining", "blockage", "density",
		"densify", "faultsweep", "css", "campaign",
	}
	names := StudyNames()
	if len(names) != len(want) {
		t.Fatalf("registry has %d studies, want %d: %v", len(names), len(want), names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate study name %q", name)
		}
		seen[name] = true
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("study[%d] = %q, want %q", i, names[i], name)
		}
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if s.Name != name {
			t.Fatalf("Lookup(%q) returned study %q", name, s.Name)
		}
		if s.Run == nil {
			t.Fatalf("study %q has no Run", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown study succeeded")
	}
	if err := UnknownStudyError("nope"); !strings.Contains(err.Error(), "ablations") {
		t.Errorf("UnknownStudyError does not list the registry: %v", err)
	}
}

// TestRegistryRunStandalone exercises the platform-free studies through
// the registry exactly as evalrunner does.
func TestRegistryRunStandalone(t *testing.T) {
	cfg := NewConfig(Quick(), 42)
	for _, name := range []string{"table1", "fig10", "density"} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if s.NeedsPlatform {
			t.Fatalf("standalone study %q claims to need a platform", name)
		}
		rep, err := s.Run(context.Background(), nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Table() == "" || rep.Summary() == "" {
			t.Fatalf("%s: empty rendering", name)
		}
		if strings.ContainsRune(rep.Summary(), '\n') {
			t.Fatalf("%s: Summary is not one line: %q", name, rep.Summary())
		}
		if _, err := rep.MarshalJSON(); err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
	}
}
