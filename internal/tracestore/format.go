// Package tracestore is the columnar binary trace store behind the
// out-of-core campaign pipeline: compact fixed-width little-endian
// columns, framed and checksummed block by block on write, streamed back
// block by block on read, sharded across seeded .bin files so million-trial
// studies replay with bounded memory (ROADMAP item 2; the shard/streaming
// architecture follows the GO-BACKTEST day-file design).
//
// A shard file is a fixed-size header followed by zero or more blocks:
//
//	file   := header meta block*
//	header := magic[8] version(u16) kind(u16) metaLen(u32)
//	          seedLo(u64) seedHi(u64) records(u64) blocks(u32) crc(u32)
//	meta   := metaLen bytes of codec schema (e.g. sector list, probe count)
//	block  := nrecs(u32) rawLen(u32) payloadCRC(u32) payload[rawLen]
//
// The payload is the column-major concatenation of the codec's
// fixed-width columns for nrecs records, stored as is: no compression,
// so a reader reads it straight into its block buffer and a shard's
// bytes are a direct function of its records. The header is written
// provisionally at open (records = blocks = crc = 0) and finalized on
// Close with the true counts, the covered seed range [seedLo, seedHi)
// and a CRC32 over header fields and meta — so a reader can tell a
// finished shard from one left behind by a crash.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Magic identifies tracestore shard files.
var Magic = [8]byte{'T', 'A', 'L', 'O', 'N', 'T', 'S', 1}

// Version is the current format version. Readers reject other versions.
const Version uint16 = 2

// headerSize is the fixed header length before the meta bytes.
const headerSize = 8 + 2 + 2 + 4 + 8 + 8 + 8 + 4 + 4

// blockHeaderSize frames each block.
const blockHeaderSize = 4 + 4 + 4

// maxBlockRecords bounds nrecs so a corrupt frame cannot provoke a huge
// allocation; maxBlockBytes does the same for the payload (which must
// also fit in the bytes left in the file) and maxMetaBytes for the codec
// schema, which the header CRC covers and so is read before it can be
// verified.
const (
	maxBlockRecords = 1 << 22
	maxBlockBytes   = 1 << 30
	maxMetaBytes    = 1 << 16
)

// Typed sentinel errors of the store.
var (
	// ErrBadMagic reports a file that is not a tracestore shard.
	ErrBadMagic = errors.New("tracestore: bad magic")
	// ErrVersion reports an unsupported format version.
	ErrVersion = errors.New("tracestore: unsupported format version")
	// ErrKindMismatch reports a shard written by a different codec.
	ErrKindMismatch = errors.New("tracestore: record kind mismatch")
	// ErrCorrupt reports structural damage: CRC mismatch, impossible
	// frame sizes, or a header never finalized by Close.
	ErrCorrupt = errors.New("tracestore: corrupt shard")
	// ErrSeedOrder reports Append calls with a decreasing seed; shards
	// must cover contiguous non-decreasing seed ranges for splits.
	ErrSeedOrder = errors.New("tracestore: seeds must be non-decreasing")
	// ErrSplitStraddle reports a shard whose seed range crosses the
	// requested in-sample/out-of-sample boundary.
	ErrSplitStraddle = errors.New("tracestore: shard straddles split boundary")
	// ErrSplitFolds reports a k-fold split with fewer shards than
	// folds; shards are the atomic unit, so each fold needs at least
	// one.
	ErrSplitFolds = errors.New("tracestore: not enough shards for k-fold split")
)

// Header describes one finalized shard file.
type Header struct {
	// Version and Kind echo the file's format version and codec kind.
	Version uint16
	Kind    uint16
	// SeedLo and SeedHi delimit the half-open seed range [SeedLo,
	// SeedHi) the shard's records cover.
	SeedLo, SeedHi uint64
	// Records and Blocks count the shard's contents.
	Records uint64
	Blocks  uint32
	// Meta carries the codec's schema bytes.
	Meta []byte
}

// headerCRC hashes the header fields and meta the same way on write and
// verify. The crc field itself is hashed as zero.
func headerCRC(buf []byte, meta []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(buf[:headerSize-4])
	h.Write([]byte{0, 0, 0, 0})
	h.Write(meta)
	return h.Sum32()
}

// encodeHeader serializes h (with its CRC) into a fresh buffer, meta
// excluded.
func encodeHeader(h Header) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], Magic[:])
	binary.LittleEndian.PutUint16(buf[8:], h.Version)
	binary.LittleEndian.PutUint16(buf[10:], h.Kind)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(h.Meta)))
	binary.LittleEndian.PutUint64(buf[16:], h.SeedLo)
	binary.LittleEndian.PutUint64(buf[24:], h.SeedHi)
	binary.LittleEndian.PutUint64(buf[32:], h.Records)
	binary.LittleEndian.PutUint32(buf[40:], h.Blocks)
	binary.LittleEndian.PutUint32(buf[44:], headerCRC(buf, h.Meta))
	return buf
}

// decodeHeader parses and verifies the fixed header. The caller supplies
// the meta bytes once it has read them (metaFromFile), so decoding is a
// two-step: sizes first, CRC check after.
func decodeHeader(buf []byte) (Header, uint32, error) {
	var h Header
	if len(buf) < headerSize {
		return h, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if [8]byte(buf[0:8]) != Magic {
		return h, 0, ErrBadMagic
	}
	h.Version = binary.LittleEndian.Uint16(buf[8:])
	if h.Version != Version {
		return h, 0, fmt.Errorf("%w: %d", ErrVersion, h.Version)
	}
	h.Kind = binary.LittleEndian.Uint16(buf[10:])
	metaLen := binary.LittleEndian.Uint32(buf[12:])
	h.SeedLo = binary.LittleEndian.Uint64(buf[16:])
	h.SeedHi = binary.LittleEndian.Uint64(buf[24:])
	h.Records = binary.LittleEndian.Uint64(buf[32:])
	h.Blocks = binary.LittleEndian.Uint32(buf[40:])
	crc := binary.LittleEndian.Uint32(buf[44:])
	if metaLen > maxMetaBytes {
		return h, 0, fmt.Errorf("%w: meta length %d", ErrCorrupt, metaLen)
	}
	h.Meta = make([]byte, metaLen)
	return h, crc, nil
}

// readHeaderFrom reads and fully verifies a header (including meta and
// CRC) from r.
func readHeaderFrom(r io.Reader) (Header, error) {
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Header{}, fmt.Errorf("%w: truncated header: %w", ErrCorrupt, shortRead(err))
		}
		return Header{}, err
	}
	h, crc, err := decodeHeader(buf)
	if err != nil {
		return Header{}, err
	}
	if _, err := io.ReadFull(r, h.Meta); err != nil {
		return Header{}, fmt.Errorf("%w: truncated meta: %w", ErrCorrupt, shortRead(err))
	}
	if crc == 0 && h.Records == 0 && h.Blocks == 0 {
		return Header{}, fmt.Errorf("%w: shard was never finalized (crashed writer?)", ErrCorrupt)
	}
	if want := headerCRC(buf, h.Meta); crc != want {
		return Header{}, fmt.Errorf("%w: header CRC %08x != %08x", ErrCorrupt, crc, want)
	}
	return h, nil
}

// shortRead is the error of a short io.ReadFull inside a shard. io.EOF
// there means the file ended early, not that the shard did, so it
// becomes io.ErrUnexpectedEOF: a caller that stops at errors.Is(err,
// io.EOF) cannot take a shard cut at a block boundary for a finished one.
func shortRead(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadHeader opens path just long enough to read and verify its header.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	h, err := readHeaderFrom(f)
	if err != nil {
		return Header{}, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// Shard pairs a shard file path with its verified header.
type Shard struct {
	Path   string
	Header Header
}

// Discover lists the finalized shards named "<base>-NNNNN.bin" in dir,
// sorted by shard index (lexicographic on the zero-padded name). Every
// matching file's header is read and verified; a corrupt or foreign file
// in the directory is an error, not a silent skip.
func Discover(dir, base string) ([]Shard, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var shards []Shard
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, base+"-") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		path := filepath.Join(dir, name)
		h, err := ReadHeader(path)
		if err != nil {
			return nil, err
		}
		shards = append(shards, Shard{Path: path, Header: h})
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Path < shards[j].Path })
	if len(shards) == 0 {
		return nil, fmt.Errorf("tracestore: no %s-*.bin shards in %s", base, dir)
	}
	return shards, nil
}

// Codec defines one record schema: how a slice of records becomes
// fixed-width little-endian columns and back. Implementations must be
// safe for concurrent DecodeBlock calls (the replayer decodes shards in
// parallel with one shared codec).
type Codec[T any] interface {
	// Kind tags the schema in shard headers.
	Kind() uint16
	// Meta returns the schema bytes stored per file (dimensions,
	// sector lists, ...). CheckMeta validates a file's meta against
	// this codec and returns ErrKindMismatch-wrapped errors.
	Meta() []byte
	CheckMeta(meta []byte) error
	// AppendBlock appends recs column-major onto buf and returns it.
	AppendBlock(buf []byte, recs []T) []byte
	// DecodeBlock decodes n records from the column-major raw bytes,
	// reusing dst's capacity (including per-record sub-slices).
	DecodeBlock(raw []byte, n int, dst []T) ([]T, error)
}
