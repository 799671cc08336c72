// Package reclog is the record framing of the project's append-only logs:
// the scheduler's journal (dsnaudit/sched) and the chain's log
// (internal/chain). Every record is framed as
//
//	magic(2) | type(1) | len(4, big-endian payload length) | payload | crc32c(4)
//
// with the checksum (Castagnoli) covering type, length and payload. Each log
// has its own magic, so one log's bytes never read as the other's.
//
// The framing gives the read side an unambiguous tail rule (Scan): a record
// whose bytes run out before its declared end — the half-written frame a
// crash mid-append leaves behind — is a torn tail, truncated at the last
// valid record. A record that fails its checksum, framing or payload decode
// while later bytes still decode as valid records is not a torn write, it is
// corruption in the middle of the log: a reader must never guess across a
// hole in the history.
package reclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic opens every record of one log.
type Magic [2]byte

// table is the CRC-32C table the checksums use.
var table = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize  = 2 + 1 + 4 // magic + type + payload length
	trailerSize = 4         // the checksum
	// maxPayload bounds a single record; anything declaring more is
	// garbage, not a big record.
	maxPayload = 1 << 20
)

// ErrShort means a buffer ends before the record at its start does: the
// torn-tail signal. ErrBad means the bytes present are not a valid record.
var (
	ErrShort = errors.New("reclog: record extends past buffer")
	ErrBad   = errors.New("reclog: malformed record")
)

// Begin appends the header of a record of type typ to dst, with its length
// left zero for End to patch, and returns the extended slice. The caller
// appends the payload, then calls End with len(dst) from before Begin.
func (m Magic) Begin(dst []byte, typ byte) []byte {
	return append(dst, m[0], m[1], typ, 0, 0, 0, 0)
}

// End closes the record Begin opened at start: it patches the payload length
// and appends the checksum. Bytes before start are not touched.
func End(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+3:], uint32(len(dst)-start-headerSize))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start+2:], table))
}

// Frame reads the record at the start of buf: its type, its payload (a
// sub-slice of buf) and its framed size. It allocates nothing, so garbage
// cannot make it allocate from a declared length.
func (m Magic) Frame(buf []byte) (typ byte, payload []byte, n int, err error) {
	if len(buf) < headerSize {
		return 0, nil, 0, ErrShort
	}
	if buf[0] != m[0] || buf[1] != m[1] {
		return 0, nil, 0, ErrBad
	}
	plen := binary.BigEndian.Uint32(buf[3:7])
	if plen > maxPayload {
		return 0, nil, 0, ErrBad
	}
	end := headerSize + int(plen)
	if len(buf) < end+trailerSize {
		return 0, nil, 0, ErrShort
	}
	if crc32.Checksum(buf[2:end], table) != binary.BigEndian.Uint32(buf[end:]) {
		return 0, nil, 0, ErrBad
	}
	return buf[2], buf[headerSize:end], end + trailerSize, nil
}

// CorruptError locates corruption in the middle of a log.
type CorruptError struct{ Offset int }

func (e *CorruptError) Error() string {
	return fmt.Sprintf("reclog: corrupt record at offset %d, valid records after it", e.Offset)
}

// Scan walks a log of records with magic m from the start, decoding each
// with decode — which frames the record at the start of its buffer (Frame)
// and decodes its payload, returning the record and its framed size — and
// returns the decoded records and the number of valid bytes. A record that
// fails at some offset ends a torn tail, and valid is the truncation point,
// unless a complete record still decodes after it: then the failure is
// mid-log corruption and Scan returns a *CorruptError at that offset.
func Scan[R any](m Magic, data []byte, decode func(buf []byte) (R, int, error)) ([]R, int, error) {
	var recs []R
	off := 0
	for off < len(data) {
		rec, n, err := decode(data[off:])
		if err != nil {
			if validAfter(m, data, off+1, decode) {
				return nil, 0, &CorruptError{Offset: off}
			}
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}

// validAfter reports whether any complete record decodes at an offset >=
// from. It only needs to try offsets where the magic matches.
func validAfter[R any](m Magic, data []byte, from int, decode func([]byte) (R, int, error)) bool {
	for o := from; o+headerSize+trailerSize <= len(data); o++ {
		if data[o] != m[0] || data[o+1] != m[1] {
			continue
		}
		if _, _, err := decode(data[o:]); err == nil {
			return true
		}
	}
	return false
}
