package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/obs"
)

// The scheduler journal is the durability layer's write path: an append-only
// log, sharded by contract address, of what recovery cannot re-derive from
// the contracts — registrations, parked deadlines/backoffs, settled rounds,
// terminal outcomes, and a per-tick wake mark. An open challenge or a sealed
// proof is not journaled: Contract.State() already says so. Together with
// the periodic checkpoint (checkpoint.go) it lets Recover rebuild the wake
// queues and the engagement registry without rescanning a single contract.
//
// Every record is framed as
//
//	magic(2) | type(1) | len(4, big-endian payload length) | payload | crc32c(4)
//
// with the checksum (Castagnoli) covering type, length and payload. The
// framing gives the read side an unambiguous tail rule: a record whose bytes
// run out before its declared end — the half-written frame a crash mid-append
// leaves behind — is a torn tail, silently truncated at the last valid
// checksum. A record that fails its checksum or framing while *later* bytes
// still decode as valid records is not a torn write, it is corruption in the
// middle of the log, and surfaces as a JournalCorruptError: recovery must
// never guess across a hole in the history.
//
// Appends are group-committed. A record is encoded into its shard's buffer
// and reaches the file as part of one coalesced write, at the next of: a
// scheduler durability barrier — the tick-top cadence flush, which also
// fsyncs (WithJournalFlushEvery); the flush before a settled block is handed
// to the settlement stage; the flush and fsync before a checkpoint captures
// journal offsets — a full buffer (journalFlushBytes), or Close. Two record
// types write through the buffer at once (flushing whatever it holds first,
// preserving order): registrations, because the scheduler must never act on
// an engagement whose registration is not on disk — a lost registration is
// the one record recovery cannot reconstruct — and tick marks, because the
// resume height must be exactly the tick the run died in. What a crash can
// lose — parked marks, settled rounds — is absorbed by Recover, which
// re-derives live phase from contract state and reconciles settled rounds
// from the chain; the contracts themselves are the authoritative record of
// what settled. What a machine crash can lose is therefore bounded by the
// fsync cadence, and what a process crash can lose by the distance to the
// last barrier.

// Journal record types. 2 (challenge issued) and 3 (proof submitted) are
// retired and never reused: they decode like any unknown type, so a journal
// that holds them is refused rather than half-read.
type recordType uint8

const (
	recRegister recordType = 1 // engagement registered (seq, base round count)
	recSettled  recordType = 4 // a round's verdict recorded
	recTerminal recordType = 5 // engagement reached a terminal state
	recParked   recordType = 6 // entry parked (deadline wait or overload backoff)
	recTick     recordType = 7 // a tick's wake height was processed
)

// parkKind distinguishes the two parked phases in a parked record.
type parkKind uint8

const (
	parkDeadline parkKind = 0 // waiting out the proof deadline into a slash
	parkRetry    parkKind = 1 // waiting out an ErrOverloaded backoff
)

// journalRecord is the decoded form of any journal record; which fields are
// meaningful depends on typ.
type journalRecord struct {
	typ  recordType
	addr chain.Address // all types except recTick

	seq        uint64 // recRegister: global registration sequence number
	baseRounds int    // recRegister: contract rounds already settled at Add

	round int // recSettled/recParked: contract round

	passed   bool // recSettled: the verdict
	deadline bool // recSettled: settled via the missed-deadline path

	kind    parkKind // recParked
	height  uint64   // recParked: absolute wake height; recTick: wake height
	retries int      // recParked: consecutive overload refusals so far

	state  contract.State // recTerminal
	rounds int            // recTerminal: result round count
	passN  int            // recTerminal: result passed count
	failN  int            // recTerminal: result failed count
	errMsg string         // recTerminal: terminal error text, "" for none
}

var (
	journalMagic = [2]byte{0xd5, 0x4a}
	crcTable     = crc32.MakeTable(crc32.Castagnoli)
)

const (
	recordHeaderSize  = 2 + 1 + 4 // magic + type + payload length
	recordTrailerSize = 4         // crc32c
	// maxRecordPayload bounds a single record; addresses and error strings
	// are short, so anything past this is garbage, not a big record.
	maxRecordPayload = 1 << 20
)

// ErrJournalCorrupt marks corruption in the middle of a journal shard —
// bytes that fail their checksum while valid records still follow. A torn
// tail (the expected crash artifact) never produces it.
var ErrJournalCorrupt = errors.New("sched: journal corrupt")

// journalCorruptError locates mid-file journal corruption. errors.Is matches
// it against ErrJournalCorrupt.
type journalCorruptError struct {
	Path   string
	Offset int64
}

func (e *journalCorruptError) Error() string {
	return fmt.Sprintf("sched: journal corrupt: %s at offset %d", e.Path, e.Offset)
}

func (e *journalCorruptError) Is(target error) bool { return target == ErrJournalCorrupt }

// errShortRecord is the decoder's internal "buffer ends before the record
// does" — the torn-tail signal. errBadRecord is structural garbage at a
// known offset.
var (
	errShortRecord = errors.New("sched: record extends past buffer")
	errBadRecord   = errors.New("sched: malformed record")
)

// appendRecord frames one record onto the end of dst and returns the extended
// slice; bytes already in dst are not touched.
func appendRecord(dst []byte, r journalRecord) []byte {
	start := len(dst)
	dst = append(dst, journalMagic[0], journalMagic[1], byte(r.typ), 0, 0, 0, 0) // length patched below
	switch r.typ {
	case recRegister:
		dst = binary.BigEndian.AppendUint64(dst, r.seq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.baseRounds))
		dst = append(dst, r.addr...)
	case recSettled:
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.round))
		var flags byte
		if r.passed {
			flags |= 1
		}
		if r.deadline {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = append(dst, r.addr...)
	case recParked:
		dst = append(dst, byte(r.kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.round))
		dst = binary.BigEndian.AppendUint64(dst, r.height)
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.retries))
		dst = append(dst, r.addr...)
	case recTerminal:
		dst = append(dst, byte(r.state))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.rounds))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.passN))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.failN))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.errMsg)))
		dst = append(dst, r.errMsg...)
		dst = append(dst, r.addr...)
	case recTick:
		dst = binary.BigEndian.AppendUint64(dst, r.height)
	default:
		panic(fmt.Sprintf("sched: appendRecord of unknown type %d", r.typ))
	}
	binary.BigEndian.PutUint32(dst[start+3:], uint32(len(dst)-start-recordHeaderSize))
	sum := crc32.Checksum(dst[start+2:], crcTable) // type | len | payload
	return binary.BigEndian.AppendUint32(dst, sum)
}

// decodeRecord decodes the record at the start of buf, returning it and the
// number of bytes consumed. errShortRecord means buf ends before the record's
// declared end (a torn tail candidate); errBadRecord means the bytes present
// are not a valid record. Allocation is bounded by the bytes actually in buf,
// never by a declared length — garbage cannot make the decoder over-allocate.
func decodeRecord(buf []byte) (journalRecord, int, error) {
	var r journalRecord
	if len(buf) < recordHeaderSize {
		return r, 0, errShortRecord
	}
	if buf[0] != journalMagic[0] || buf[1] != journalMagic[1] {
		return r, 0, errBadRecord
	}
	typ := recordType(buf[2])
	plen := binary.BigEndian.Uint32(buf[3:7])
	if plen > maxRecordPayload {
		return r, 0, errBadRecord
	}
	total := recordHeaderSize + int(plen) + recordTrailerSize
	if len(buf) < total {
		return r, 0, errShortRecord
	}
	body := buf[2 : recordHeaderSize+int(plen)]
	want := binary.BigEndian.Uint32(buf[recordHeaderSize+int(plen) : total])
	if crc32.Checksum(body, crcTable) != want {
		return r, 0, errBadRecord
	}
	p := buf[recordHeaderSize : recordHeaderSize+int(plen)]
	r.typ = typ
	switch typ {
	case recRegister:
		if len(p) < 12 {
			return r, 0, errBadRecord
		}
		r.seq = binary.BigEndian.Uint64(p)
		r.baseRounds = int(binary.BigEndian.Uint32(p[8:]))
		r.addr = chain.Address(p[12:])
	case recSettled:
		if len(p) < 5 {
			return r, 0, errBadRecord
		}
		r.round = int(binary.BigEndian.Uint32(p))
		r.passed = p[4]&1 != 0
		r.deadline = p[4]&2 != 0
		r.addr = chain.Address(p[5:])
	case recParked:
		if len(p) < 17 {
			return r, 0, errBadRecord
		}
		r.kind = parkKind(p[0])
		if r.kind != parkDeadline && r.kind != parkRetry {
			return r, 0, errBadRecord
		}
		r.round = int(binary.BigEndian.Uint32(p[1:]))
		r.height = binary.BigEndian.Uint64(p[5:])
		r.retries = int(binary.BigEndian.Uint32(p[13:]))
		r.addr = chain.Address(p[17:])
	case recTerminal:
		if len(p) < 15 {
			return r, 0, errBadRecord
		}
		r.state = contract.State(p[0])
		r.rounds = int(binary.BigEndian.Uint32(p[1:]))
		r.passN = int(binary.BigEndian.Uint32(p[5:]))
		r.failN = int(binary.BigEndian.Uint32(p[9:]))
		elen := int(binary.BigEndian.Uint16(p[13:]))
		if len(p) < 15+elen {
			return r, 0, errBadRecord
		}
		r.errMsg = string(p[15 : 15+elen])
		r.addr = chain.Address(p[15+elen:])
	case recTick:
		if len(p) != 8 {
			return r, 0, errBadRecord
		}
		r.height = binary.BigEndian.Uint64(p)
	default:
		return r, 0, errBadRecord
	}
	return r, total, nil
}

// scanRecords walks one shard's bytes from the start. It returns the decoded
// records and the number of valid bytes. A failure at some offset is a torn
// tail — valid is the truncation point — unless any complete record still
// decodes after it, in which case the failure is mid-file corruption and the
// scan returns an error at that offset.
func scanRecords(data []byte, path string) ([]journalRecord, int, error) {
	var recs []journalRecord
	off := 0
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if validRecordAfter(data, off+1) {
				return nil, 0, &journalCorruptError{Path: path, Offset: int64(off)}
			}
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}

// validRecordAfter reports whether any complete, checksummed record decodes
// at an offset >= from. It only needs to try offsets where the magic
// matches.
func validRecordAfter(data []byte, from int) bool {
	for o := from; o+recordHeaderSize+recordTrailerSize <= len(data); o++ {
		if data[o] != journalMagic[0] || data[o+1] != journalMagic[1] {
			continue
		}
		if _, _, err := decodeRecord(data[o:]); err == nil {
			return true
		}
	}
	return false
}

// JournalStats counts the journal's write activity.
type JournalStats struct {
	Appends     uint64 // records appended
	Bytes       uint64 // record bytes appended
	Writes      uint64 // file writes issued: one per coalesced flush or write-through record
	Fsyncs      uint64 // fsyncs issued: at most one per shard per synced barrier
	Checkpoints uint64 // checkpoints completed
	TornBytes   uint64 // torn tail bytes truncated when the journal was opened
}

// Journal is the scheduler's sharded append-only log. One instance is owned
// by one scheduler; appends route by contract address so one engagement's
// history lives in one shard file, in order.
//
// The journal has one failure path: its first I/O error is latched, and from
// then on every append, flush and Close returns that error without writing
// another byte. A write that failed may have left a torn prefix on disk;
// writing the buffer again behind it would put garbage in the middle of the
// file, where OpenJournal refuses it. A torn tail is what a crash leaves, and
// recovery absorbs it.
type Journal struct {
	fs      fsys
	dir     string
	nshards int
	shards  []*journalShard

	// flushBytes is the buffer size at which a shard flushes between
	// barriers; fixed before Run.
	flushBytes int

	mu    sync.Mutex
	stats JournalStats
	err   error // first I/O failure; sticky
}

// journalFlushBytes caps a shard's append buffer between barriers.
const journalFlushBytes = 256 << 10

// instrument registers the journal's dsn_journal_* metric family on reg.
// Every series is func-backed over Stats, so instrumentation adds nothing to
// the append path.
func (j *Journal) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dsn_journal_appends_total", "records appended to the scheduler journal",
		func() float64 { return float64(j.Stats().Appends) })
	reg.CounterFunc("dsn_journal_bytes_total", "record bytes appended to the scheduler journal",
		func() float64 { return float64(j.Stats().Bytes) })
	reg.CounterFunc("dsn_journal_writes_total", "journal file writes issued",
		func() float64 { return float64(j.Stats().Writes) })
	reg.CounterFunc("dsn_journal_fsyncs_total", "journal fsyncs issued",
		func() float64 { return float64(j.Stats().Fsyncs) })
	reg.CounterFunc("dsn_journal_torn_bytes_total", "torn tail bytes truncated at journal open",
		func() float64 { return float64(j.Stats().TornBytes) })
	reg.CounterFunc("dsn_journal_checkpoints_total", "checkpoints completed",
		func() float64 { return float64(j.Stats().Checkpoints) })
}

type journalShard struct {
	mu       sync.Mutex
	path     string
	f        fsFile
	size     int64  // flushed bytes only — what checkpoint offsets may reference
	buf      []byte // records appended but not yet written
	unsynced bool   // flushed bytes not yet covered by an fsync
}

// fsys is the journal's window on the file system: every call in journal.go
// and checkpoint.go that changes what is on disk goes through it, so a test
// can fail or kill the journal at any one of them. Production uses osFS.
// Reads go straight to os; they leave nothing behind for a crash to tear.
type fsys interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (fsFile, error)
	Truncate(name string, size int64) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// fsFile is a file opened through fsys.
type fsFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is fsys on the real file system.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (fsFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return f, nil
}

// journalMetaName and the shard file pattern fix the on-disk layout.
const journalMetaName = "meta"

var journalMetaMagic = []byte{'D', 'S', 'N', 'J', 1}

func journalShardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%02d.log", i))
}

// OpenJournal opens (creating if needed) the journal rooted at dir. shards
// fixes the shard-file count for a fresh journal (<= 0 selects 8); an
// existing journal keeps the count recorded in its meta file. Existing shard
// files are validated on open: a torn tail is truncated (and counted in
// Stats().TornBytes), mid-file corruption returns a JournalCorruptError.
func OpenJournal(dir string, shards int) (*Journal, error) {
	return openJournal(osFS{}, dir, shards)
}

func openJournal(fs fsys, dir string, shards int) (*Journal, error) {
	if shards <= 0 {
		shards = 8
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: journal dir: %w", err)
	}
	j := &Journal{fs: fs, dir: dir, flushBytes: journalFlushBytes}
	metaPath := filepath.Join(dir, journalMetaName)
	meta, err := os.ReadFile(metaPath)
	fresh := os.IsNotExist(err)
	if err == nil {
		n, err := parseJournalMeta(meta)
		if err != nil {
			return nil, fmt.Errorf("sched: journal meta %s: %w", metaPath, err)
		}
		shards = n
	} else if !fresh {
		return nil, fmt.Errorf("sched: journal meta: %w", err)
	}

	j.nshards, j.shards = shards, make([]*journalShard, shards)
	for i := range j.shards {
		path := journalShardPath(dir, i)
		size, torn, err := validateShardFile(fs, path)
		if err != nil {
			j.closeOpened()
			return nil, err
		}
		f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			j.closeOpened()
			return nil, fmt.Errorf("sched: open journal shard: %w", err)
		}
		j.shards[i] = &journalShard{path: path, f: f, size: size}
		j.stats.TornBytes += uint64(torn)
	}
	if fresh {
		// Installed like a checkpoint, after the shard files exist: a crash
		// leaves no meta or a whole one, never an empty file that would
		// refuse the directory at restart, and the install's directory fsync
		// makes the new shard files durable with it.
		meta = binary.BigEndian.AppendUint32(append([]byte(nil), journalMetaMagic...), uint32(shards))
		if err := j.install(journalMetaName, meta); err != nil {
			j.closeOpened()
			return nil, fmt.Errorf("sched: journal meta: %w", err)
		}
	}
	return j, nil
}

func parseJournalMeta(meta []byte) (int, error) {
	if len(meta) != len(journalMetaMagic)+4 {
		return 0, errBadRecord
	}
	for i, b := range journalMetaMagic {
		if meta[i] != b {
			return 0, errBadRecord
		}
	}
	n := int(binary.BigEndian.Uint32(meta[len(journalMetaMagic):]))
	if n < 1 || n > 4096 {
		return 0, errBadRecord
	}
	return n, nil
}

// validateShardFile scans an existing shard file, truncating a torn tail in
// place. It returns the valid size and how many torn bytes were dropped. A
// missing file is a valid empty shard.
func validateShardFile(fs fsys, path string) (size int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("sched: read journal shard: %w", err)
	}
	_, valid, err := scanRecords(data, path)
	if err != nil {
		return 0, 0, err
	}
	if valid < len(data) {
		if err := fs.Truncate(path, int64(valid)); err != nil {
			return 0, 0, fmt.Errorf("sched: truncate torn journal tail: %w", err)
		}
	}
	return int64(valid), int64(len(data) - valid), nil
}

func (j *Journal) closeOpened() {
	for _, sh := range j.shards {
		if sh != nil && sh.f != nil {
			sh.f.Close()
		}
	}
}

// Close flushes and syncs any buffered records and releases the shard files.
// After an I/O failure it releases them without writing and returns the
// failure.
func (j *Journal) Close() error {
	for _, sh := range j.shards {
		sh.mu.Lock()
		if sh.f != nil {
			j.flushShardLocked(sh, true) // a failure is latched, returned below
			if err := sh.f.Close(); err != nil {
				j.fail(err)
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return j.fault()
}

// Stats snapshots the journal's write counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// shardFor routes an address to its shard (FNV-1a, independent of the
// scheduler's store sharding — the two counts need not match).
func (j *Journal) shardFor(addr chain.Address) int {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return int(h.Sum32() % uint32(j.nshards))
}

// fault returns the journal's latched I/O failure, if any.
func (j *Journal) fault() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// fail latches err unless an earlier failure is latched, and returns the
// latched one.
func (j *Journal) fail(err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// append routes one record to its shard's buffer; tick records (no address)
// go to shard 0. Registrations and tick marks write through at once, a full
// buffer flushes, everything else waits for the next barrier (see the file
// header).
func (j *Journal) append(r journalRecord) error {
	sh := j.shards[0]
	if r.typ != recTick {
		sh = j.shards[j.shardFor(r.addr)]
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := j.fault(); err != nil {
		return err
	}
	if sh.f == nil {
		return j.fail(errors.New("sched: journal closed"))
	}
	start := len(sh.buf)
	sh.buf = appendRecord(sh.buf, r)
	j.mu.Lock()
	j.stats.Appends++
	j.stats.Bytes += uint64(len(sh.buf) - start)
	j.mu.Unlock()
	if r.typ == recRegister || r.typ == recTick || len(sh.buf) >= j.flushBytes {
		// Registrations and tick marks write through (see the file header).
		// Both are rare relative to the per-engagement record volume (one
		// tick mark per tick, one registration per engagement lifetime), so
		// the coalescing win is untouched. A full buffer flushes early.
		return j.flushShardLocked(sh, false)
	}
	return nil
}

// flushShardLocked writes a shard's buffered records as one coalesced write,
// optionally followed by one fsync. Caller holds sh.mu.
func (j *Journal) flushShardLocked(sh *journalShard, sync bool) error {
	if err := j.fault(); err != nil {
		return err
	}
	if len(sh.buf) > 0 {
		if _, err := sh.f.Write(sh.buf); err != nil {
			return j.fail(fmt.Errorf("sched: journal flush: %w", err))
		}
		sh.size += int64(len(sh.buf))
		sh.buf = sh.buf[:0]
		sh.unsynced = true
		j.mu.Lock()
		j.stats.Writes++
		j.mu.Unlock()
	}
	if sync && sh.unsynced {
		return j.syncShardLocked(sh)
	}
	return nil
}

// syncShardLocked fsyncs a shard whose flushed bytes are not yet covered by
// one. Caller holds sh.mu.
func (j *Journal) syncShardLocked(sh *journalShard) error {
	if err := sh.f.Sync(); err != nil {
		return j.fail(fmt.Errorf("sched: journal fsync: %w", err))
	}
	sh.unsynced = false
	j.mu.Lock()
	j.stats.Fsyncs++
	j.mu.Unlock()
	return nil
}

// barrier flushes every shard's buffer. sync additionally fsyncs each shard
// that has unsynced bytes. Shards flush in order; a crash mid-barrier leaves
// earlier shards written and later ones not.
func (j *Journal) barrier(sync bool) error {
	for _, sh := range j.shards {
		sh.mu.Lock()
		err := j.flushShardLocked(sh, sync)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// offsets snapshots each shard's current valid size, for checkpointing.
func (j *Journal) offsets() []int64 {
	out := make([]int64, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		out[i] = sh.size
		sh.mu.Unlock()
	}
	return out
}

// readShardFrom returns a shard's records starting at a byte offset,
// applying the same torn-tail/corruption discipline as OpenJournal. An
// offset past the file (a checkpoint paired with a journal that lost bytes)
// is corruption.
func readShardFrom(dir string, i int, off int64) ([]journalRecord, int64, error) {
	path := journalShardPath(dir, i)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if off > 0 {
			return nil, 0, &journalCorruptError{Path: path, Offset: 0}
		}
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sched: read journal shard: %w", err)
	}
	if off > int64(len(data)) {
		return nil, 0, &journalCorruptError{Path: path, Offset: int64(len(data))}
	}
	recs, valid, err := scanRecords(data[off:], path)
	if err != nil {
		return nil, 0, err
	}
	return recs, int64(len(data)) - off - int64(valid), nil
}
