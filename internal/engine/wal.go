package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/csc"
	"repro/internal/obs"
)

// Durability layout: a store directory holds at most two files.
//
//	snapshot.csc  "CSCSNAP1" + seq uint64 + index WriteTo bytes (v1 or v2)
//	wal.log       "CSCWAL01" + a sequence of batch records
//
// One WAL record (little endian):
//
//	seq   uint64   batch sequence number, strictly increasing
//	count uint32   number of ops
//	ops   count ×  { kind uint8, a uint32, b uint32 }
//	crc   uint32   CRC-32C over the record bytes from seq through ops
//
// Every applied batch is appended and fsynced before the batch mutates
// the index (write-ahead), so a killed process recovers its exact state
// by loading the snapshot and replaying the records with larger sequence
// numbers. A torn final record (crash mid-append) is detected by the CRC
// and truncated away; records at or below the snapshot's sequence number
// (crash between snapshot rename and WAL truncation) are skipped.

const (
	snapshotFile = "snapshot.csc"
	walFile      = "wal.log"
	walHeaderLen = 8
	recordFixed  = 8 + 4 + 4 // seq + count + crc
	opBytes      = 9         // kind + a + b
	// maxBatchOps bounds a decoded record's op count so a corrupt length
	// field cannot drive a huge allocation.
	maxBatchOps = 1 << 22
)

var (
	walMagic  = [8]byte{'C', 'S', 'C', 'W', 'A', 'L', '0', '1'}
	snapMagic = [8]byte{'C', 'S', 'C', 'S', 'N', 'A', 'P', '1'}

	crcTable = crc32.MakeTable(crc32.Castagnoli)

	// ErrCorruptStore reports a store directory whose snapshot or WAL
	// cannot be trusted (beyond an ordinary torn tail, which is repaired
	// silently).
	ErrCorruptStore = errors.New("engine: corrupt store")
)

// Store is the engine's durability directory: one snapshot plus the WAL
// of batches applied since. All methods are called from the engine's
// writer goroutine only.
type Store struct {
	dir      string
	io       StoreIO
	wal      StoreFile
	walBytes int64
	scratch  []byte

	// appendNS/fsyncNS time WAL appends (whole record, write+fsync) and
	// the fsync alone. Set by the owning engine when metrics are enabled;
	// nil histograms record nothing.
	appendNS *obs.Histogram
	fsyncNS  *obs.Histogram
}

// OpenStore opens (creating if needed) a store directory and takes an
// exclusive advisory lock on the WAL: two processes appending to and
// replaying the same log would interleave bytes mid-record and the
// second's acknowledged batches would read as a torn tail. The lock is
// released when the file closes — including by process death, which is
// what makes kill-and-restart safe. Call Recover to load the state.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreIO(dir, OSIO)
}

// OpenStoreIO is OpenStore with the filesystem behind an explicit StoreIO
// — the injection point for the fault-injection harness.
func OpenStoreIO(dir string, sio StoreIO) (*Store, error) {
	if err := sio.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := sio.OpenFile(filepath.Join(dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: store %s is locked by another process: %w", dir, err)
	}
	return &Store{dir: dir, io: sio, wal: f}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// WALBytes returns the current WAL file size.
func (s *Store) WALBytes() int64 { return s.walBytes }

// Recover loads the snapshot (or bootstraps a fresh index when none
// exists) and replays every WAL batch past the snapshot's sequence
// number, returning the recovered index and the last applied sequence
// number. The index is always a *csc.Sharded: a monolithic snapshot or
// bootstrap index is re-sharded (csc.AsSharded) before replay. A torn
// WAL tail is truncated; the WAL is left positioned for appending.
func (s *Store) Recover(bootstrap func() (csc.Counter, error)) (csc.Counter, uint64, error) {
	ix, seq, err := s.recoverSharded(bootstrap)
	if err != nil {
		return nil, 0, err
	}
	return ix, seq, nil
}

// recoverSharded is Recover with the sharded result type the engine
// serves.
func (s *Store) recoverSharded(bootstrap func() (csc.Counter, error)) (*csc.Sharded, uint64, error) {
	c, seq, err := s.loadSnapshot()
	if err != nil {
		return nil, 0, err
	}
	if c == nil {
		if bootstrap == nil {
			return nil, 0, fmt.Errorf("%w: no snapshot in %s and no bootstrap", ErrCorruptStore, s.dir)
		}
		if c, err = bootstrap(); err != nil {
			return nil, 0, fmt.Errorf("engine: bootstrap: %w", err)
		}
	}
	ix := csc.AsSharded(c)
	seq, err = s.replay(ix, seq)
	if err != nil {
		return nil, 0, err
	}
	return ix, seq, nil
}

// loadSnapshot returns (nil, 0, nil) when no snapshot file exists.
func (s *Store) loadSnapshot() (csc.Counter, uint64, error) {
	f, err := s.io.Open(filepath.Join(s.dir, snapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var hdr [walHeaderLen + 8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot header: %v", ErrCorruptStore, err)
	}
	if !bytes.Equal(hdr[:8], snapMagic[:]) {
		return nil, 0, fmt.Errorf("%w: snapshot magic %q", ErrCorruptStore, hdr[:8])
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	ix, err := csc.Read(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot body: %v", ErrCorruptStore, err)
	}
	return ix, seq, nil
}

// replay applies WAL records with sequence numbers beyond snapSeq to ix
// and repairs the WAL file (header creation, torn-tail truncation).
func (s *Store) replay(ix *csc.Sharded, snapSeq uint64) (uint64, error) {
	data, err := io.ReadAll(s.wal)
	if err != nil {
		return 0, err
	}
	if len(data) < walHeaderLen {
		// Empty or torn header: records are only ever appended after the
		// header was synced, so nothing can be lost — start fresh.
		return snapSeq, s.resetWAL()
	}
	if !bytes.Equal(data[:walHeaderLen], walMagic[:]) {
		return 0, fmt.Errorf("%w: WAL magic %q", ErrCorruptStore, data[:walHeaderLen])
	}
	seq := snapSeq
	off := walHeaderLen
	for off < len(data) {
		rec, recLen, ok := decodeRecord(data[off:])
		if !ok {
			break // torn or corrupt tail: truncate from here
		}
		if rec.seq > seq {
			if err := applyRecord(ix, rec); err != nil {
				return 0, fmt.Errorf("%w: replay batch seq %d: %v", ErrCorruptStore, rec.seq, err)
			}
			seq = rec.seq
		}
		off += recLen
	}
	if off < len(data) {
		if err := s.wal.Truncate(int64(off)); err != nil {
			return 0, err
		}
	}
	if _, err := s.wal.Seek(int64(off), io.SeekStart); err != nil {
		return 0, err
	}
	s.walBytes = int64(off)
	return seq, nil
}

func (s *Store) resetWAL() error {
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := s.wal.Write(walMagic[:]); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.walBytes = walHeaderLen
	return nil
}

type walRecord struct {
	seq uint64
	ops []Op
}

// EncodeWALRecord appends one batch record — the exact bytes Append
// writes to disk — to dst and returns the extended slice. The record
// format doubles as the cluster replication wire format: a primary ships
// the same bytes it logged, and a follower replays them through
// DecodeWALRecord, so the two paths cannot drift.
func EncodeWALRecord(dst []byte, seq uint64, ops []Op) []byte {
	start := len(dst)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], seq)
	dst = append(dst, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(ops)))
	dst = append(dst, tmp[:4]...)
	for _, op := range ops {
		dst = append(dst, byte(op.Kind))
		binary.LittleEndian.PutUint32(tmp[:4], uint32(op.A))
		dst = append(dst, tmp[:4]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(op.B))
		dst = append(dst, tmp[:4]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.Checksum(dst[start:], crcTable))
	return append(dst, tmp[:4]...)
}

// DecodeWALRecord parses one record from the front of data. ok is false
// when the bytes are truncated or fail the CRC — a WAL reader treats both
// as the torn tail of a crashed append; a replication receiver treats
// them as a malformed ship.
func DecodeWALRecord(data []byte) (seq uint64, ops []Op, recLen int, ok bool) {
	rec, recLen, ok := decodeRecord(data)
	return rec.seq, rec.ops, recLen, ok
}

// decodeRecord parses one record from the front of data. ok is false when
// the bytes are truncated or fail the CRC — the reader treats both as the
// torn tail of a crashed append.
func decodeRecord(data []byte) (rec walRecord, recLen int, ok bool) {
	if len(data) < recordFixed {
		return rec, 0, false
	}
	rec.seq = binary.LittleEndian.Uint64(data)
	count := binary.LittleEndian.Uint32(data[8:])
	if count > maxBatchOps {
		return rec, 0, false
	}
	payload := 12 + int(count)*opBytes
	if len(data) < payload+4 {
		return rec, 0, false
	}
	if crc32.Checksum(data[:payload], crcTable) != binary.LittleEndian.Uint32(data[payload:]) {
		return rec, 0, false
	}
	rec.ops = make([]Op, count)
	for i := range rec.ops {
		o := data[12+i*opBytes:]
		rec.ops[i] = Op{
			Kind: OpKind(o[0]),
			A:    int32(binary.LittleEndian.Uint32(o[1:])),
			B:    int32(binary.LittleEndian.Uint32(o[5:])),
		}
	}
	return rec, payload + 4, true
}

func applyRecord(ix *csc.Sharded, rec walRecord) error {
	// An unknown kind byte must fail recovery as corruption — the batch
	// conversion below would otherwise normalize it to an insert and
	// replay silently wrong state.
	for i, op := range rec.ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return fmt.Errorf("op %d (%d,%d): unknown op kind %d", i, op.A, op.B, op.Kind)
		}
	}
	// Replay goes through the same batch path live serving uses: every
	// logged record was one applied batch, so it replays as one batch —
	// sequentially here (recovery predates the engine's worker options).
	if _, err := ix.ApplyBatch(batchOps(rec.ops), 1); err != nil {
		return err
	}
	return nil
}

// Append writes one batch record and fsyncs it. The engine calls this
// before mutating the index (write-ahead).
func (s *Store) Append(seq uint64, batch []Op) error {
	s.scratch = EncodeWALRecord(s.scratch[:0], seq, batch)
	start := time.Now()
	n, err := s.wal.Write(s.scratch)
	s.walBytes += int64(n)
	if err != nil {
		return err
	}
	syncStart := time.Now()
	err = s.wal.Sync()
	if err == nil {
		s.fsyncNS.ObserveSince(syncStart)
		s.appendNS.ObserveSince(start)
	}
	return err
}

// truncateTo rolls the WAL back to off bytes — the rollback between
// Append retries. A failed append may have left a partial record on
// disk; retrying after it would put a torn record mid-WAL, and replay
// would silently truncate every acknowledged batch behind it.
func (s *Store) truncateTo(off int64) error {
	if err := s.wal.Truncate(off); err != nil {
		return err
	}
	if _, err := s.wal.Seek(off, io.SeekStart); err != nil {
		return err
	}
	s.walBytes = off
	return nil
}

// WriteSnapshot persists the full index at the given sequence number
// (atomically, via a temp file and rename) and then truncates the WAL:
// recovery from the new snapshot no longer needs the logged batches. A
// crash between the rename and the truncation is benign — replay skips
// records at or below the snapshot's sequence number.
func (s *Store) WriteSnapshot(seq uint64, ix csc.Counter) error {
	path := filepath.Join(s.dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := s.io.Create(tmp)
	if err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.io.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := s.io.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return s.resetWAL()
}

// Close closes the WAL file.
func (s *Store) Close() error { return s.wal.Close() }
