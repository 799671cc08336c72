package sched

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/obs"
	"repro/internal/reclog"
)

// The scheduler journal is the durability layer's write path: one
// append-only log file, journal.log, of what recovery cannot re-derive from
// the contracts — registrations, parked deadlines/backoffs, settled rounds,
// terminal outcomes, and a per-tick wake mark. An open challenge or a sealed
// proof is not journaled: Contract.State() already says so. Together with
// the periodic checkpoint (checkpoint.go) it lets Recover rebuild the wake
// queues and the engagement registry without rescanning a single contract.
//
// Records are framed by internal/reclog, the framing the chain's log shares:
// a torn tail is silently truncated at the last valid record, and a record
// that fails its checksum or decode while later records still decode is
// corruption in the middle of the log, a JournalCorruptError.
//
// Appends are group-committed. A record is encoded into the journal's buffer
// and reaches the file as part of one coalesced write, at the next of: a
// scheduler durability barrier — the tick-top cadence flush, which also
// fsyncs (WithJournalFlushEvery); the flush before a settled block is handed
// to the settlement stage; the flush and fsync before a checkpoint captures
// the journal's offset — a full buffer (journalFlushBytes), or Close. Two record
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

var journalMagic = reclog.Magic{0xd5, 0x4a}

// ErrJournalCorrupt marks corruption in the middle of the journal log —
// bytes that fail their checksum while valid records still follow — and a
// journal directory whose meta is not this layout's. A torn tail (the
// expected crash artifact) never produces it.
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

// errShortRecord is the decoder's "buffer ends before the record does" — the
// torn-tail signal. errBadRecord is structural garbage at a known offset.
var (
	errShortRecord = reclog.ErrShort
	errBadRecord   = reclog.ErrBad
)

// appendRecord frames one record onto the end of dst and returns the extended
// slice; bytes already in dst are not touched.
func appendRecord(dst []byte, r journalRecord) []byte {
	start := len(dst)
	dst = journalMagic.Begin(dst, byte(r.typ))
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
	return reclog.End(dst, start)
}

// decodeRecord decodes the record at the start of buf, returning it and the
// number of bytes consumed. errShortRecord means buf ends before the record's
// declared end (a torn tail candidate); errBadRecord means the bytes present
// are not a valid record. Allocation is bounded by the bytes actually in buf,
// never by a declared length — garbage cannot make the decoder over-allocate.
func decodeRecord(buf []byte) (journalRecord, int, error) {
	var r journalRecord
	t, p, total, err := journalMagic.Frame(buf)
	if err != nil {
		return r, 0, err
	}
	typ := recordType(t)
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

// scanRecords walks a log's bytes from the start under reclog's tail rule.
// It returns the decoded records and the number of valid bytes; mid-file
// corruption is a JournalCorruptError at its offset.
func scanRecords(data []byte, path string) ([]journalRecord, int, error) {
	recs, valid, err := reclog.Scan(journalMagic, data, decodeRecord)
	var ce *reclog.CorruptError
	if errors.As(err, &ce) {
		return nil, 0, &journalCorruptError{Path: path, Offset: int64(ce.Offset)}
	}
	return recs, valid, err
}

// JournalStats counts the journal's write activity.
type JournalStats struct {
	Appends     uint64 // records appended
	Bytes       uint64 // record bytes appended
	Writes      uint64 // file writes issued: one per coalesced flush or write-through record
	Fsyncs      uint64 // fsyncs issued: at most one per synced barrier
	Checkpoints uint64 // checkpoints completed
	TornBytes   uint64 // torn tail bytes truncated when the journal was opened
}

// Journal is the scheduler's append-only log, one file in its directory.
// One instance is owned by one scheduler. Appends are taken under one
// mutex, so the log holds each engagement's history in the order it
// happened.
//
// The journal has one failure path: its first I/O error is latched, and from
// then on every append, flush and Close returns that error without writing
// another byte. A write that failed may have left a torn prefix on disk;
// writing the buffer again behind it would put garbage in the middle of the
// file, where OpenJournal refuses it. A torn tail is what a crash leaves, and
// recovery absorbs it.
type Journal struct {
	fs  fsys
	dir string

	// flushBytes is the buffer size at which the log flushes between
	// barriers; fixed before Run.
	flushBytes int

	mu       sync.Mutex
	f        fsFile
	size     int64  // flushed bytes only — what a checkpoint offset may reference
	buf      []byte // records appended but not yet written
	unsynced bool   // flushed bytes not yet covered by an fsync
	stats    JournalStats
	err      error // first I/O failure; sticky
}

// journalFlushBytes caps the append buffer between barriers.
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

// The on-disk layout: the log, and a meta file that marks the directory as
// this layout. Version 1 of the meta named a count of address-sharded log
// files; a directory holding it is refused, never read as empty.
const (
	journalMetaName = "meta"
	journalLogName  = "journal.log"
)

var journalMeta = []byte{'D', 'S', 'N', 'J', 2}

// readJournalMeta checks dir's meta file: an error wrapping fs.ErrNotExist
// when there is none, one matching ErrJournalCorrupt when it is not this
// layout's.
func readJournalMeta(dir string) error {
	path := filepath.Join(dir, journalMetaName)
	meta, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sched: journal meta: %w", err)
	}
	if !bytes.Equal(meta, journalMeta) {
		return fmt.Errorf("%w: %s is not a one-file journal's meta", ErrJournalCorrupt, path)
	}
	return nil
}

// OpenJournal opens (creating if needed) the journal rooted at dir. The int
// argument is ignored (the journal is one file); it is kept because bench/
// compiles against it. An existing
// log is validated on open: a torn tail is truncated (and counted in
// Stats().TornBytes), mid-file corruption returns a JournalCorruptError. A
// directory whose meta is not this layout's is refused with an error that
// matches ErrJournalCorrupt, before anything in it is created or changed.
func OpenJournal(dir string, _ int) (*Journal, error) {
	return openJournal(osFS{}, dir)
}

func openJournal(fs fsys, dir string) (*Journal, error) {
	err := readJournalMeta(dir)
	fresh := errors.Is(err, iofs.ErrNotExist)
	if err != nil && !fresh {
		return nil, err
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalLogName)
	size, torn, err := validateLog(fs, path)
	if err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sched: open journal: %w", err)
	}
	j := &Journal{fs: fs, dir: dir, flushBytes: journalFlushBytes, f: f, size: size}
	j.stats.TornBytes = uint64(torn)
	if fresh {
		// Installed like a checkpoint, after the log exists: a crash leaves
		// no meta or a whole one, never an empty file that would refuse the
		// directory at restart, and the install's directory fsync makes the
		// new log durable with it.
		if err := j.install(journalMetaName, journalMeta); err != nil {
			f.Close()
			return nil, fmt.Errorf("sched: journal meta: %w", err)
		}
	}
	return j, nil
}

// validateLog scans an existing log, truncating a torn tail in place. It
// returns the valid size and how many torn bytes were dropped. A missing
// file is a valid empty log.
func validateLog(fs fsys, path string) (size int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("sched: read journal: %w", err)
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

// Close flushes and syncs any buffered records and releases the log. After
// an I/O failure it releases it without writing and returns the failure. A
// second Close does nothing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.flushLocked(true) // a failure is latched, returned below
		if err := j.f.Close(); err != nil {
			j.failLocked(err)
		}
		j.f = nil
	}
	return j.err
}

// Stats snapshots the journal's write counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
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
	return j.failLocked(err)
}

func (j *Journal) failLocked(err error) error {
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// append adds one record to the buffer. Registrations and tick marks write
// through at once, a full buffer flushes, everything else waits for the next
// barrier (see the file header).
func (j *Journal) append(r journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return j.failLocked(errors.New("sched: journal closed"))
	}
	start := len(j.buf)
	j.buf = appendRecord(j.buf, r)
	j.stats.Appends++
	j.stats.Bytes += uint64(len(j.buf) - start)
	if r.typ == recRegister || r.typ == recTick || len(j.buf) >= j.flushBytes {
		// Registrations and tick marks write through (see the file header).
		// Both are rare relative to the per-engagement record volume (one
		// tick mark per tick, one registration per engagement lifetime), so
		// the coalescing win is untouched. A full buffer flushes early.
		return j.flushLocked(false)
	}
	return nil
}

// flushLocked writes the buffered records as one coalesced write, optionally
// followed by one fsync. Caller holds j.mu.
func (j *Journal) flushLocked(sync bool) error {
	if j.err != nil {
		return j.err
	}
	if len(j.buf) > 0 {
		if _, err := j.f.Write(j.buf); err != nil {
			return j.failLocked(fmt.Errorf("sched: journal flush: %w", err))
		}
		j.size += int64(len(j.buf))
		j.buf = j.buf[:0]
		j.unsynced = true
		j.stats.Writes++
	}
	if sync && j.unsynced {
		if err := j.f.Sync(); err != nil {
			return j.failLocked(fmt.Errorf("sched: journal fsync: %w", err))
		}
		j.unsynced = false
		j.stats.Fsyncs++
	}
	return nil
}

// barrier flushes the buffer. sync additionally fsyncs the log if it has
// unsynced bytes.
func (j *Journal) barrier(sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked(sync)
}

// offset is the log's current valid size, for checkpointing.
func (j *Journal) offset() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// readLogFrom returns the records of dir's log from a byte offset on, and
// the torn tail bytes past them, applying the same torn-tail/corruption
// discipline as OpenJournal. An offset past the file (a checkpoint paired
// with a journal that lost bytes) is corruption.
func readLogFrom(dir string, off int64) ([]journalRecord, int64, error) {
	path := filepath.Join(dir, journalLogName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if off > 0 {
			return nil, 0, &journalCorruptError{Path: path, Offset: 0}
		}
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sched: read journal: %w", err)
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
