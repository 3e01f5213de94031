package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// WriterOptions tune the sharded writer. The zero value means defaults.
type WriterOptions struct {
	// RecordsPerShard caps a shard file before the writer rolls to the
	// next one (default 1<<16).
	RecordsPerShard int
	// BlockRecords is the number of records buffered and framed per
	// block (default 4096). Larger blocks cost fewer frames and reads;
	// smaller blocks bound the replayer's working set tighter.
	BlockRecords int
}

func (o *WriterOptions) defaults() {
	if o.RecordsPerShard <= 0 {
		o.RecordsPerShard = 1 << 16
	}
	if o.BlockRecords <= 0 {
		o.BlockRecords = 4096
	}
}

// Writer streams records into sharded columnar .bin files named
// "<base>-NNNNN.bin" under one directory. Records must arrive with
// non-decreasing seeds so each shard covers a contiguous seed range
// and the in-sample/out-of-sample split can cut between shards. Not
// safe for concurrent use; one campaign writes through one Writer.
type Writer[T any] struct {
	codec Codec[T]
	dir   string
	base  string
	opts  WriterOptions

	f   *os.File
	bw  *bufio.Writer
	hdr Header // running header of the open shard

	pending  []T // records buffered for the current block
	raw      []byte
	frame    [blockHeaderSize]byte
	shardIx  int
	shardRec int    // records in the open shard (pending included)
	lastSeed uint64 // highest seed appended so far
	started  bool   // at least one Append happened
	shards   []Shard
}

// NewWriter creates a sharded writer under dir. Shard files are created
// lazily on first Append. Records append through Append; Close finalizes
// the last shard and returns the full shard list.
func NewWriter[T any](codec Codec[T], dir, base string, opts WriterOptions) (*Writer[T], error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer[T]{codec: codec, dir: dir, base: base, opts: opts}, nil
}

// ShardPath names shard i of a campaign: "<base>-00000.bin" and so on.
func ShardPath(dir, base string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%05d.bin", base, i))
}

// Append adds one record under its seed. Seeds must be non-decreasing
// across the whole campaign.
func (w *Writer[T]) Append(seed uint64, rec T) error {
	if w.started && seed < w.lastSeed {
		return fmt.Errorf("%w: %d after %d", ErrSeedOrder, seed, w.lastSeed)
	}
	if w.f == nil {
		if err := w.openShard(seed); err != nil {
			return err
		}
	}
	w.started = true
	w.lastSeed = seed
	if seed >= w.hdr.SeedHi {
		w.hdr.SeedHi = seed + 1
	}
	w.pending = append(w.pending, rec)
	w.shardRec++
	metAppends.Inc()
	if len(w.pending) >= w.opts.BlockRecords {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if w.shardRec >= w.opts.RecordsPerShard {
		return w.closeShard()
	}
	return nil
}

// openShard starts shard w.shardIx with a provisional header (records,
// blocks and CRC zero) that Close rewrites once the counts are known.
func (w *Writer[T]) openShard(firstSeed uint64) error {
	path := ShardPath(w.dir, w.base, w.shardIx)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 1<<16)
	} else {
		w.bw.Reset(f)
	}
	w.hdr = Header{
		Version: Version,
		Kind:    w.codec.Kind(),
		SeedLo:  firstSeed,
		SeedHi:  firstSeed,
		Meta:    w.codec.Meta(),
	}
	provisional := encodeHeader(w.hdr)
	// Zero the counters and CRC so a crash leaves a recognizably
	// unfinalized file.
	for i := 32; i < headerSize; i++ {
		provisional[i] = 0
	}
	if _, err := w.bw.Write(provisional); err != nil {
		return err
	}
	_, err = w.bw.Write(w.hdr.Meta)
	metShardsOpened.Inc()
	return err
}

// flushBlock frames and writes the pending records.
func (w *Writer[T]) flushBlock() error {
	if len(w.pending) == 0 {
		return nil
	}
	w.raw = w.codec.AppendBlock(w.raw[:0], w.pending)
	binary.LittleEndian.PutUint32(w.frame[0:], uint32(len(w.pending)))
	binary.LittleEndian.PutUint32(w.frame[4:], uint32(len(w.raw)))
	binary.LittleEndian.PutUint32(w.frame[8:], crc32.ChecksumIEEE(w.raw))
	if _, err := w.bw.Write(w.frame[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.raw); err != nil {
		return err
	}
	w.hdr.Records += uint64(len(w.pending))
	w.hdr.Blocks++
	w.pending = w.pending[:0]
	metBlocksWritten.Inc()
	metBytesWritten.Add(int64(blockHeaderSize + len(w.raw)))
	return nil
}

// closeShard flushes the tail block, rewrites the finalized header in
// place and closes the file.
func (w *Writer[T]) closeShard() error {
	if w.f == nil {
		return nil
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	final := encodeHeader(w.hdr)
	if _, err := w.f.WriteAt(final, 0); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.shards = append(w.shards, Shard{Path: ShardPath(w.dir, w.base, w.shardIx), Header: w.hdr})
	w.f = nil
	w.shardIx++
	w.shardRec = 0
	return nil
}

// Close finalizes the open shard (if any) and returns the complete
// shard list in write order.
func (w *Writer[T]) Close() ([]Shard, error) {
	if err := w.closeShard(); err != nil {
		return nil, err
	}
	return w.shards, nil
}
