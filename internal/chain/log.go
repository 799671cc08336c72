package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/reclog"
)

// The chain's log is its history on disk, one file: the ordered successful
// contract calls ("ops", encoded by the contract package, each with the
// inputs it needs to run again), the content those ops reference, once per
// log, and a seal mark per block carrying the block's height, gas and bytes.
// A fresh process rebuilds the chain by running the log again on the genesis
// state (contract.Replay): ops in order, MineBlock at each mark, and a
// re-sealed block that differs from its mark is corrupt state.
//
// Records use the journal's framing (internal/reclog) under their own magic:
// a torn tail is truncated when the log is opened, a damaged record with
// valid records after it is ErrLogCorrupt. An op is written, under the
// chain's lock and in the same step as the transaction it submits, before
// its call returns, so the log holds calls in the order the chain applied
// them and is never behind a journal record that describes a call's effect.
// Each seal mark is fsynced. With no log attached nothing is encoded or
// written.

// LogKind is the type of a chain log record.
type LogKind uint8

// Chain log record kinds.
const (
	LogOp      LogKind = 1 // a contract call; Data is the contract's op encoding
	LogContent LogKind = 2 // content a later op references by digest; Data is the content
	LogSeal    LogKind = 3 // a sealed block: Height, Gas, Bytes
)

// LogRecord is one decoded chain log record. Data aliases the bytes the log
// was read from.
type LogRecord struct {
	Kind   LogKind
	Data   []byte
	Height uint64
	Gas    uint64
	Bytes  uint64
}

var logMagic = reclog.Magic{0xd5, 0x43}

// ErrLogCorrupt marks a chain log that cannot be replayed: a damaged record
// mid-log, an op that does not decode or run, or a re-sealed block that
// differs from its mark. A torn tail never produces it.
var ErrLogCorrupt = errors.New("chain: log corrupt")

// Log is an open chain log file. One chain writes it (AttachLog); every
// write happens under that chain's lock. Its first I/O error is latched:
// every later write returns it without writing, and so does Close.
type Log struct {
	f       *os.File
	buf     []byte            // the record being framed, reused
	content map[[32]byte]bool // digests of the content records in the log
	err     error             // first I/O failure; sticky
}

// CreateLog creates an empty chain log at path, replacing any file there.
func CreateLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("chain: create log: %w", err)
	}
	return &Log{f: f, content: make(map[[32]byte]bool)}, nil
}

// OpenLog opens the chain log at path for appending and returns its records
// for replay. A torn tail is truncated in place; mid-log corruption returns
// an error matching ErrLogCorrupt, and a missing file one matching
// fs.ErrNotExist.
func OpenLog(path string) (*Log, []LogRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("chain: read log: %w", err)
	}
	recs, valid, err := scanLog(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrLogCorrupt, path, err)
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("chain: truncate torn log tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("chain: open log: %w", err)
	}
	l := &Log{f: f, content: make(map[[32]byte]bool)}
	for _, r := range recs {
		if r.Kind == LogContent {
			l.content[sha256.Sum256(r.Data)] = true
		}
	}
	return l, recs, nil
}

// scanLog decodes a chain log's bytes under reclog's tail rule, returning
// the records and the valid prefix's length.
func scanLog(data []byte) ([]LogRecord, int, error) {
	return reclog.Scan(logMagic, data, decodeLogRecord)
}

// decodeLogRecord decodes the record at the start of buf and returns it
// with its framed size.
func decodeLogRecord(buf []byte) (LogRecord, int, error) {
	typ, p, n, err := logMagic.Frame(buf)
	if err != nil {
		return LogRecord{}, 0, err
	}
	r := LogRecord{Kind: LogKind(typ)}
	switch r.Kind {
	case LogOp, LogContent:
		r.Data = p
	case LogSeal:
		if len(p) != 24 {
			return r, 0, reclog.ErrBad
		}
		r.Height = binary.BigEndian.Uint64(p)
		r.Gas = binary.BigEndian.Uint64(p[8:])
		r.Bytes = binary.BigEndian.Uint64(p[16:])
	default:
		return r, 0, reclog.ErrBad
	}
	return r, n, nil
}

// Close fsyncs the ops written since the last seal mark, releases the file
// and returns the log's latched error, if any. The chain it is attached to
// must be done with it. A second Close does nothing.
func (l *Log) Close() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil && l.err == nil {
			l.err = fmt.Errorf("chain: log fsync: %w", err)
		}
		if err := l.f.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.f = nil
	}
	return l.err
}

// write frames one record and writes it through; sync also fsyncs the file.
func (l *Log) write(kind LogKind, payload []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		l.err = errors.New("chain: log closed")
		return l.err
	}
	l.buf = append(logMagic.Begin(l.buf[:0], byte(kind)), payload...)
	l.buf = reclog.End(l.buf, 0)
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("chain: log write: %w", err)
		return l.err
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("chain: log fsync: %w", err)
		}
	}
	return l.err
}

// AttachLog makes c write its history to l from now on. It is called before
// c is shared; a chain replayed from l's records is attached after the
// replay, so the replay writes nothing.
func (c *Chain) AttachLog(l *Log) { c.log = l }

// Logging reports whether c writes a log: a contract encodes its ops only
// then.
func (c *Chain) Logging() bool { return c.log != nil }

// LogOp writes one op that submits no transaction, preceded by content when
// the log does not hold it yet. It does nothing when op is nil.
func (c *Chain) LogOp(op, content []byte) error {
	if op == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logOpLocked(op, content)
}

func (c *Chain) logOpLocked(op, content []byte) error {
	if c.log == nil {
		return nil
	}
	if content != nil {
		digest := sha256.Sum256(content)
		if !c.log.content[digest] {
			if err := c.log.write(LogContent, content, false); err != nil {
				return err
			}
			c.log.content[digest] = true
		}
	}
	return c.log.write(LogOp, op, false)
}

// logFault returns the attached log's latched error: a chain whose log
// failed takes no more calls, since they could never be replayed.
func (c *Chain) logFault() error {
	if c.log == nil {
		return nil
	}
	return c.log.err
}

// logSealLocked writes blk's seal mark and fsyncs it.
func (c *Chain) logSealLocked(blk *Block) {
	var mark [24]byte
	binary.BigEndian.PutUint64(mark[:], blk.Number)
	binary.BigEndian.PutUint64(mark[8:], blk.GasUsed)
	binary.BigEndian.PutUint64(mark[16:], uint64(blk.ByteSize))
	c.log.write(LogSeal, mark[:], true) // a failure is latched; the next call returns it
}

// Reseal mines the block a seal mark records, during a replay, and fails if
// the block differs from the mark.
func (c *Chain) Reseal(mark LogRecord) error {
	blk := c.MineBlock()
	if blk.Number != mark.Height || blk.GasUsed != mark.Gas || uint64(blk.ByteSize) != mark.Bytes {
		return fmt.Errorf("block %d re-sealed with %d gas, %d bytes; its mark says block %d, %d gas, %d bytes",
			blk.Number, blk.GasUsed, blk.ByteSize, mark.Height, mark.Gas, mark.Bytes)
	}
	return nil
}
