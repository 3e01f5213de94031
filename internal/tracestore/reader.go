package tracestore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Reader streams one shard file block by block. All buffers — the
// block frame, the raw column block and the decoded record slice — are
// owned by the Reader and reused across blocks, so memory stays
// bounded by one block regardless of shard size. Not safe for
// concurrent use; the replayer gives each worker its own Reader.
type Reader[T any] struct {
	codec Codec[T]
	f     *os.File
	br    *bufio.Reader
	hdr   Header

	frame     [blockHeaderSize]byte
	raw       []byte
	recs      []T
	blocksGot uint32
	recsGot   uint64
	left      int64 // file bytes after the header not yet consumed
}

// OpenReader opens one shard and verifies its header against the codec.
func OpenReader[T any](codec Codec[T], path string) (*Reader[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader[T]{codec: codec, f: f}
	if err := r.attach(path); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// attach buffers r.f, then reads and verifies the header against the
// codec.
func (r *Reader[T]) attach(path string) error {
	if r.br == nil {
		r.br = bufio.NewReaderSize(r.f, 1<<16)
	} else {
		r.br.Reset(r.f)
	}
	fi, err := r.f.Stat()
	if err != nil {
		return err
	}
	h, err := readHeaderFrom(r.br)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if h.Kind != r.codec.Kind() {
		return fmt.Errorf("%s: %w: file kind %d, codec kind %d", path, ErrKindMismatch, h.Kind, r.codec.Kind())
	}
	if err := r.codec.CheckMeta(h.Meta); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r.hdr = h
	r.blocksGot, r.recsGot = 0, 0
	r.left = fi.Size() - int64(headerSize+len(h.Meta))
	return nil
}

// Header returns the shard's verified header.
func (r *Reader[T]) Header() Header { return r.hdr }

// Next returns the next block of decoded records, valid until the
// following Next call (the slice and its record sub-slices are reused).
// It returns io.EOF after the last block the header promises, and only
// then: a shard cut short, even at a block boundary, is ErrCorrupt.
func (r *Reader[T]) Next() ([]T, error) {
	if r.blocksGot == r.hdr.Blocks {
		if r.recsGot != r.hdr.Records {
			return nil, fmt.Errorf("%w: header promises %d records, blocks held %d", ErrCorrupt, r.hdr.Records, r.recsGot)
		}
		// The framed blocks are exhausted; anything further is junk.
		if _, err := r.br.ReadByte(); err == nil {
			return nil, fmt.Errorf("%w: trailing bytes after final block", ErrCorrupt)
		} else if !errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, io.EOF
	}
	if _, err := io.ReadFull(r.br, r.frame[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated block frame: %w", ErrCorrupt, shortRead(err))
	}
	nrecs := binary.LittleEndian.Uint32(r.frame[0:])
	rawLen := binary.LittleEndian.Uint32(r.frame[4:])
	wantCRC := binary.LittleEndian.Uint32(r.frame[8:])
	r.left -= blockHeaderSize
	if nrecs == 0 || nrecs > maxBlockRecords || rawLen > maxBlockBytes || int64(rawLen) > r.left {
		return nil, fmt.Errorf("%w: implausible block frame (nrecs=%d raw=%d, %d bytes left)", ErrCorrupt, nrecs, rawLen, r.left)
	}
	r.left -= int64(rawLen)
	if cap(r.raw) < int(rawLen) {
		r.raw = make([]byte, rawLen)
	}
	r.raw = r.raw[:rawLen]
	if _, err := io.ReadFull(r.br, r.raw); err != nil {
		return nil, fmt.Errorf("%w: truncated block payload: %w", ErrCorrupt, shortRead(err))
	}
	if got := crc32.ChecksumIEEE(r.raw); got != wantCRC {
		return nil, fmt.Errorf("%w: block CRC %08x != %08x", ErrCorrupt, got, wantCRC)
	}
	recs, err := r.codec.DecodeBlock(r.raw, int(nrecs), r.recs)
	if err != nil {
		return nil, err
	}
	r.recs = recs
	r.blocksGot++
	r.recsGot += uint64(nrecs)
	metBlocksRead.Inc()
	metRecordsRead.Add(int64(nrecs))
	return recs, nil
}

// Close releases the shard file.
func (r *Reader[T]) Close() error { return r.f.Close() }

// Reopen switches the Reader to another shard, keeping every decode
// buffer (block frame, raw block, record slice) so a replay worker
// touches steady-state memory no matter how many shards it consumes.
// The previous file is closed first.
func (r *Reader[T]) Reopen(path string) error {
	if err := r.f.Close(); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	r.f = f
	if err := r.attach(path); err != nil {
		f.Close()
		return err
	}
	return nil
}

// ReplayShards streams every shard through fn with bounded memory:
// workers claim whole shards from an atomic cursor, each worker owns one
// Reader (and so one set of reusable decode buffers), and fn is called
// once per decoded block with the shard's index in shards. The record
// slice passed to fn is only valid during the call. fn must be safe for
// concurrent calls on distinct shards; ctx is observed between blocks.
// The first error (or ctx cancellation) stops all workers.
func ReplayShards[T any](ctx context.Context, codec Codec[T], shards []Shard, workers int, fn func(shard int, recs []T) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	var cursor atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r *Reader[T] // this worker's reader; buffers persist across shards
			defer func() {
				if r != nil {
					r.Close()
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				if err := replayShard(ctx, codec, shards[i], i, &r, fn); err != nil {
					errs[w] = err
					cursor.Store(int64(len(shards))) // stop the other workers
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayShard streams one shard block by block through fn, reusing the
// worker's Reader (created on the worker's first shard).
func replayShard[T any](ctx context.Context, codec Codec[T], s Shard, ix int, rp **Reader[T], fn func(int, []T) error) error {
	if *rp == nil {
		r, err := OpenReader(codec, s.Path)
		if err != nil {
			return err
		}
		*rp = r
	} else if err := (*rp).Reopen(s.Path); err != nil {
		return err
	}
	r := *rp
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.Path, err)
		}
		if err := fn(ix, recs); err != nil {
			return err
		}
	}
}
