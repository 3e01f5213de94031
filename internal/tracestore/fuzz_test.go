package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"talon/internal/sector"
	"talon/internal/stats"
)

// FuzzDecodeRecord round-trips the trial codec through arbitrary-ish
// inputs: the fuzzer drives both the record contents and the probe
// count, and the property is encode→decode→encode byte-identity plus
// decode never panicking on truncated or padded raw blocks.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(uint16(4), []byte("seed-corpus"), uint8(3))
	f.Add(uint16(1), []byte{0xff, 0x00, 0x41}, uint8(1))
	f.Add(uint16(33), bytes.Repeat([]byte{0x7f}, 300), uint8(5))
	f.Fuzz(func(t *testing.T, m16 uint16, blob []byte, n8 uint8) {
		m := int(m16)%255 + 1
		codec, err := NewTrialCodec(m)
		if err != nil {
			t.Fatal(err)
		}
		n := int(n8)%8 + 1

		// Build n records deterministically from blob bytes.
		at := func(i int) byte {
			if len(blob) == 0 {
				return 0
			}
			return blob[i%len(blob)]
		}
		f32 := func(i int) float32 {
			u := binary.LittleEndian.Uint32([]byte{at(i), at(i + 1), at(i + 2), at(i + 3)})
			return float32(int32(u)) / 256 // finite by construction, NaN-free for == comparison
		}
		recs := make([]Trial, n)
		k := 0
		for i := range recs {
			recs[i] = Trial{
				Seed:  uint64(i),
				AzDeg: f32(k), ElDeg: f32(k + 4),
				DistM:       f32(k + 8),
				AttenDB:     f32(k + 12),
				LinkSNR:     f32(k + 16),
				Probes:      make([]ProbeSample, m),
				SelSector:   sector.ID(at(k)),
				SelFallback: at(k+1)&1 == 1,
				SelAzDeg:    f32(k + 20),
				SelElDeg:    f32(k + 24),
			}
			for j := range recs[i].Probes {
				recs[i].Probes[j] = ProbeSample{
					Sector: sector.ID(at(k + j)),
					OK:     at(k+j)&2 == 2,
					SNR:    f32(k + j),
					RSSI:   f32(k + j + 2),
				}
			}
			k += 29
		}

		raw := codec.AppendBlock(nil, recs)
		dec, err := codec.DecodeBlock(raw, n, nil)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		raw2 := codec.AppendBlock(nil, dec)
		if !bytes.Equal(raw, raw2) {
			t.Fatal("encode→decode→encode is not byte-identical")
		}

		// Decoding wrong-sized raw must error, never panic.
		if len(raw) > 0 {
			if _, err := codec.DecodeBlock(raw[:len(raw)-1], n, nil); err == nil {
				t.Fatal("truncated raw block decoded without error")
			}
		}
		if _, err := codec.DecodeBlock(append(raw, 0), n, nil); err == nil {
			t.Fatal("padded raw block decoded without error")
		}
	})
}

// FuzzReadShard feeds arbitrary bytes to the reader as a whole shard
// file: OpenReader, then Next until io.EOF or an error. The reader must
// never panic, every error must carry one of the store's sentinels, and
// the records it returns must never exceed the header's count, and must
// match it exactly when the read ends in io.EOF. The seed corpus is a
// valid two-block shard, which must decode to exactly its records, plus
// truncations of it, one at the boundary between its blocks.
func FuzzReadShard(f *testing.F) {
	const m = 3
	codec, err := NewTrialCodec(m)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	w, err := NewWriter(codec, dir, "seed", WriterOptions{BlockRecords: 4})
	if err != nil {
		f.Fatal(err)
	}
	rng := stats.NewRNG(5)
	want := make([]Trial, 6) // one full block of 4, one of 2
	for i := range want {
		want[i] = mkTrial(rng, uint64(i), m)
		if err := w.Append(want[i].Seed, want[i]); err != nil {
			f.Fatal(err)
		}
	}
	shards, err := w.Close()
	if err != nil {
		f.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Header.Blocks != 2 {
		f.Fatalf("seed shard layout %+v, want one shard of two blocks", shards)
	}
	valid, err := os.ReadFile(shards[0].Path)
	if err != nil {
		f.Fatal(err)
	}
	got, err := readShardFile(codec, shards[0].Path)
	if err != nil {
		f.Fatalf("valid seed shard: %v", err)
	}
	if len(got) != len(want) {
		f.Fatalf("valid seed shard decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !trialsEqual(got[i], want[i]) {
			f.Fatalf("valid seed shard record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	f.Add(valid)
	firstBlock := headerSize + len(codec.Meta())
	secondBlock := firstBlock + blockHeaderSize + 4*codec.trialSize()
	for _, n := range []int{0, 8, headerSize - 1, firstBlock, firstBlock + blockHeaderSize + 3, secondBlock, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "shard.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(codec, path)
		if err != nil {
			checkShardErr(t, err)
			return
		}
		defer r.Close()
		var n uint64
		for {
			recs, err := r.Next()
			if errors.Is(err, io.EOF) {
				if n != r.Header().Records {
					t.Fatalf("io.EOF after %d records, header promises %d", n, r.Header().Records)
				}
				return
			}
			if err != nil {
				checkShardErr(t, err)
				return
			}
			if n += uint64(len(recs)); n > r.Header().Records {
				t.Fatalf("read %d records, header promises %d", n, r.Header().Records)
			}
		}
	})
}

// readShardFile decodes every record of one shard, copying each out of
// the reader's reused buffers.
func readShardFile(codec *TrialCodec, path string) ([]Trial, error) {
	r, err := OpenReader(codec, path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Trial
	for {
		recs, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			rec.Probes = append([]ProbeSample(nil), rec.Probes...)
			out = append(out, rec)
		}
	}
}

// checkShardErr fails unless err carries one of the sentinels a damaged
// or foreign shard may produce.
func checkShardErr(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrBadMagic, ErrVersion, ErrKindMismatch, ErrCorrupt} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("error carries no shard sentinel: %v", err)
}
