package tracestore

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"talon/internal/sector"
	"talon/internal/stats"
)

// mkTrial synthesizes a deterministic pseudo-random Trial for seed.
func mkTrial(rng *stats.RNG, seed uint64, m int) Trial {
	t := Trial{
		Seed:        seed,
		AzDeg:       float32(rng.Uniform(-60, 60)),
		ElDeg:       float32(rng.Uniform(-20, 20)),
		DistM:       float32(rng.Uniform(1, 10)),
		AttenDB:     float32(rng.Uniform(0, 15)),
		LinkSNR:     float32(rng.Uniform(-7, 12)),
		Probes:      make([]ProbeSample, m),
		SelSector:   sector.ID(rng.Intn(32)),
		SelFallback: rng.Bool(0.1),
		SelAzDeg:    float32(rng.Uniform(-60, 60)),
		SelElDeg:    float32(rng.Uniform(-20, 20)),
	}
	for j := range t.Probes {
		t.Probes[j] = ProbeSample{
			Sector: sector.ID(rng.Intn(32)),
			OK:     rng.Bool(0.9),
			SNR:    float32(rng.Uniform(-7, 12)),
			RSSI:   float32(rng.Uniform(-65, -40)),
		}
	}
	return t
}

func trialsEqual(a, b Trial) bool {
	if a.Seed != b.Seed || a.AzDeg != b.AzDeg || a.ElDeg != b.ElDeg ||
		a.DistM != b.DistM || a.AttenDB != b.AttenDB || a.LinkSNR != b.LinkSNR ||
		a.SelSector != b.SelSector || a.SelFallback != b.SelFallback ||
		a.SelAzDeg != b.SelAzDeg || a.SelElDeg != b.SelElDeg ||
		len(a.Probes) != len(b.Probes) {
		return false
	}
	for j := range a.Probes {
		if a.Probes[j] != b.Probes[j] {
			return false
		}
	}
	return true
}

// TestRoundTripAcrossShards is the round-trip property test: write N
// records across K shards with odd block sizes, replay with several
// worker counts, and compare every field of every record.
func TestRoundTripAcrossShards(t *testing.T) {
	const (
		m        = 11
		n        = 2500
		perShard = 700 // forces K=4 shards with a short tail
	)
	codec, err := NewTrialCodec(m)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := NewWriter(codec, dir, "camp", WriterOptions{RecordsPerShard: perShard, BlockRecords: 96})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	want := make([]Trial, n)
	for i := range want {
		want[i] = mkTrial(rng, uint64(1000+i), m)
		if err := w.Append(want[i].Seed, want[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	written, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != (n+perShard-1)/perShard {
		t.Fatalf("got %d shards, want %d", len(written), (n+perShard-1)/perShard)
	}

	shards, err := Discover(dir, "camp")
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != len(written) {
		t.Fatalf("Discover found %d shards, wrote %d", len(shards), len(written))
	}
	var totRecs uint64
	for i, s := range shards {
		if s.Path != written[i].Path {
			t.Fatalf("shard %d: Discover order %s != write order %s", i, s.Path, written[i].Path)
		}
		totRecs += s.Header.Records
	}
	if totRecs != n {
		t.Fatalf("headers promise %d records, wrote %d", totRecs, n)
	}

	for _, workers := range []int{1, 3} {
		got := make([]Trial, n)
		seen := make([]bool, n)
		var mu sync.Mutex
		err := ReplayShards(context.Background(), codec, shards, workers, func(shard int, recs []Trial) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range recs {
				i := int(r.Seed - 1000)
				if i < 0 || i >= n || seen[i] {
					t.Errorf("unexpected or duplicate seed %d", r.Seed)
					return nil
				}
				seen[i] = true
				got[i] = r
				got[i].Probes = append([]ProbeSample(nil), r.Probes...) // recs is reused after fn returns
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !seen[i] {
				t.Fatalf("workers=%d: record %d never replayed", workers, i)
			}
			if !trialsEqual(want[i], got[i]) {
				t.Fatalf("workers=%d: record %d mismatch:\n want %+v\n  got %+v", workers, i, want[i], got[i])
			}
		}
	}
}

func TestWriterRejectsDecreasingSeeds(t *testing.T) {
	codec, _ := NewTrialCodec(4)
	w, err := NewWriter(codec, t.TempDir(), "camp", WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	if err := w.Append(10, mkTrial(rng, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(9, mkTrial(rng, 9, 4)); !errors.Is(err, ErrSeedOrder) {
		t.Fatalf("got %v, want ErrSeedOrder", err)
	}
}

// writeOneShard writes n trials into a single shard and returns its path.
func writeOneShard(t *testing.T, dir string, n, m int) string {
	t.Helper()
	codec, _ := NewTrialCodec(m)
	w, err := NewWriter(codec, dir, "one", WriterOptions{BlockRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	for i := 0; i < n; i++ {
		if err := w.Append(uint64(i), mkTrial(rng, uint64(i), m)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ShardPath(dir, "one", 0)
}

func TestErrorPaths(t *testing.T) {
	codec, _ := NewTrialCodec(6)
	path := writeOneShard(t, t.TempDir(), 100, 6)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, name string, f func(b []byte) []byte, want error) {
		t.Helper()
		dir := t.TempDir()
		p := filepath.Join(dir, "mut-00000.bin")
		if err := os.WriteFile(p, f(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(codec, p)
		if err == nil {
			for err == nil {
				_, err = r.Next()
			}
			r.Close()
			if errors.Is(err, io.EOF) {
				err = nil
			}
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}

	mutate(t, "bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic)
	mutate(t, "bad version", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[8:], Version+9)
		return b
	}, ErrVersion)
	mutate(t, "zlib-era v1 shard", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[8:], 1)
		return b
	}, ErrVersion)
	mutate(t, "flipped kind", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[10:], KindTrial+1)
		return b
	}, ErrCorrupt) // kind is CRC-covered, so corruption trips before the kind check
	mutate(t, "truncated header", func(b []byte) []byte { return b[:headerSize-5] }, ErrCorrupt)
	mutate(t, "truncated mid-block", func(b []byte) []byte { return b[:len(b)-7] }, ErrCorrupt)
	mutate(t, "flipped payload byte", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, ErrCorrupt)
	mutate(t, "trailing junk", func(b []byte) []byte { return append(b, 0xAA) }, ErrCorrupt)
	mutate(t, "unfinalized header", func(b []byte) []byte {
		for i := 32; i < headerSize; i++ {
			b[i] = 0
		}
		return b
	}, ErrCorrupt)
	mutate(t, "header CRC flip", func(b []byte) []byte { b[44] ^= 0x01; return b }, ErrCorrupt)

	// Kind + meta mismatch surfaced as ErrKindMismatch needs a valid
	// CRC, i.e. a file honestly written by a different codec.
	other, _ := NewTrialCodec(7)
	dir := t.TempDir()
	w, err := NewWriter(other, dir, "other", WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	if err := w.Append(0, mkTrial(rng, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(codec, ShardPath(dir, "other", 0)); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("meta mismatch: got %v, want ErrKindMismatch", err)
	}
}

// TestOversizedFieldsAllocateNothing patches each size field a damaged
// shard can inflate — the meta length and a block's raw length — to
// 64 MiB. Each must fail as ErrCorrupt before the reader allocates a
// buffer of that size.
func TestOversizedFieldsAllocateNothing(t *testing.T) {
	codec, _ := NewTrialCodec(6)
	orig, err := os.ReadFile(writeOneShard(t, t.TempDir(), 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	block := headerSize + len(codec.Meta())
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"meta length", 12},
		{"block raw length", block + 4},
	} {
		b := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(b[tc.off:], 1<<26)
		p := filepath.Join(t.TempDir(), "big-00000.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readShardFile(codec, p)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reader allocated %d bytes before failing", tc.name, grew)
		}
	}
}

// TestTruncatedShardFailsCorrupt cuts an eight-block shard at every
// byte offset short of its end. Every cut must fail as ErrCorrupt
// without a panic, and beyond its fixed cost — the bytes it allocates
// failing on an empty file: read buffer, file handle — the reader must
// allocate no more than the shard's size, so no frame field of a
// damaged shard sizes a buffer past the data.
func TestTruncatedShardFailsCorrupt(t *testing.T) {
	const m = 4
	codec, _ := NewTrialCodec(m)
	dir := t.TempDir()
	w, err := NewWriter(codec, dir, "cut", WriterOptions{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	for i := 0; i < 120; i++ { // seven full blocks and a short tail
		if err := w.Append(uint64(i), mkTrial(rng, uint64(i), m)); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if shards[0].Header.Blocks != 8 {
		t.Fatalf("shard holds %d blocks, want 8", shards[0].Header.Blocks)
	}
	valid, err := os.ReadFile(shards[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "cut-00000.bin")
	read := func(n int) (uint64, error) {
		t.Helper()
		if err := os.WriteFile(p, valid[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := drainShard(codec, p)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	if _, err := read(len(valid)); err != nil {
		t.Fatalf("intact shard: %v", err)
	}
	fixed, _ := read(0)
	for n := 0; n < len(valid); n++ {
		grew, err := read(n)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d: got %v, want ErrCorrupt", n, len(valid), err)
		}
		if grew > fixed+uint64(len(valid)) {
			t.Fatalf("cut at %d: reader allocated %d bytes, fixed cost %d, shard %d", n, grew, fixed, len(valid))
		}
	}
}

// drainShard reads every block of one shard without keeping any,
// returning nil at io.EOF.
func drainShard(codec *TrialCodec, path string) error {
	r, err := OpenReader(codec, path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		if _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// TestSplitBySeed proves the in-sample/out-of-sample partitions are
// disjoint and exhaustive for any between-shard boundary, and that an
// intra-shard boundary is refused.
func TestSplitBySeed(t *testing.T) {
	const m, n, perShard = 5, 1000, 250
	codec, _ := NewTrialCodec(m)
	dir := t.TempDir()
	w, err := NewWriter(codec, dir, "split", WriterOptions{RecordsPerShard: perShard, BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	for i := 0; i < n; i++ {
		if err := w.Append(uint64(i), mkTrial(rng, uint64(i), m)); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, boundary := range []uint64{0, 250, 500, 750, 1000, 5000} {
		in, out, err := SplitBySeed(shards, boundary)
		if err != nil {
			t.Fatalf("boundary %d: %v", boundary, err)
		}
		if len(in)+len(out) != len(shards) {
			t.Fatalf("boundary %d: %d+%d shards, want %d", boundary, len(in), len(out), len(shards))
		}
		// Disjoint and exhaustive: every shard appears on exactly one
		// side, and every record seed lands on the side its value says.
		sides := map[string]int{}
		for _, s := range in {
			sides[s.Path]++
			if s.Header.SeedHi > boundary {
				t.Fatalf("boundary %d: in-sample shard %s reaches seed %d", boundary, s.Path, s.Header.SeedHi-1)
			}
		}
		for _, s := range out {
			sides[s.Path]++
			if s.Header.SeedLo < boundary {
				t.Fatalf("boundary %d: out-of-sample shard %s starts at seed %d", boundary, s.Path, s.Header.SeedLo)
			}
		}
		for _, s := range shards {
			if sides[s.Path] != 1 {
				t.Fatalf("boundary %d: shard %s on %d sides", boundary, s.Path, sides[s.Path])
			}
		}
	}

	if _, _, err := SplitBySeed(shards, 300); !errors.Is(err, ErrSplitStraddle) {
		t.Fatalf("intra-shard boundary: got %v, want ErrSplitStraddle", err)
	}
}

func TestReplayCancellation(t *testing.T) {
	codec, _ := NewTrialCodec(6)
	dir := t.TempDir()
	writeOneShard(t, dir, 100, 6)
	shards, err := Discover(dir, "one")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ReplayShards(ctx, codec, shards, 2, func(int, []Trial) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
