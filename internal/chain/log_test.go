package chain

import (
	"encoding/binary"
	"errors"
	"testing"
	"unsafe"

	"repro/internal/reclog"
)

// frameLog frames records the way Log.write does, into one buffer.
func frameLog(recs ...LogRecord) []byte {
	var out []byte
	for _, r := range recs {
		start := len(out)
		out = logMagic.Begin(out, byte(r.Kind))
		if r.Kind == LogSeal {
			out = binary.BigEndian.AppendUint64(out, r.Height)
			out = binary.BigEndian.AppendUint64(out, r.Gas)
			out = binary.BigEndian.AppendUint64(out, r.Bytes)
		} else {
			out = append(out, r.Data...)
		}
		out = reclog.End(out, start)
	}
	return out
}

// sampleLog is a small well-formed chain log: content, ops and seal marks.
func sampleLog() []byte {
	return frameLog(
		LogRecord{Kind: LogContent, Data: []byte("key body")},
		LogRecord{Kind: LogOp, Data: []byte{1, 4, 'a', 'u', 'd', 't'}},
		LogRecord{Kind: LogSeal, Height: 1},
		LogRecord{Kind: LogOp, Data: []byte{2, 4, 'a', 'u', 'd', 't'}},
		LogRecord{Kind: LogSeal, Height: 2},
	)
}

// within reports whether p lies inside buf's bytes.
func within(p, buf []byte) bool {
	if len(p) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(len(buf))
}

// FuzzChainLog feeds the chain log's reader arbitrary bytes. It must never
// panic; what it decodes is bounded by the input — at most one record per
// minimal frame, each record's data a window on the input, never a copy
// sized from a declared length; and a byte damaged in any record of a
// well-formed log but its last is corruption, never a record skipped.
func FuzzChainLog(f *testing.F) {
	valid := sampleLog()
	f.Add(valid, uint16(0))
	f.Add(valid[:len(valid)-3], uint16(9))
	f.Add([]byte{logMagic[0], logMagic[1], byte(LogSeal), 0xff, 0xff, 0xff, 0xff}, uint16(40))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, at uint16) {
		recs, n, err := scanLog(data)
		var ce *reclog.CorruptError
		switch {
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("scan error %v is not located corruption", err)
		case err == nil && (n < 0 || n > len(data)):
			t.Fatalf("scan kept %d of %d bytes", n, len(data))
		}
		if len(recs) > len(data)/11 { // a frame is at least its 7-byte header and 4-byte checksum
			t.Fatalf("%d records from %d bytes", len(recs), len(data))
		}
		for i, r := range recs {
			if !within(r.Data, data) {
				t.Fatalf("record %d's data is not a window on the input", i)
			}
		}

		// Damage one byte of a record before the last: the reader must
		// refuse the log, not drop the record.
		last := len(frameLog(LogRecord{Kind: LogSeal, Height: 2}))
		damaged := append([]byte(nil), valid...)
		damaged[int(at)%(len(valid)-last)] ^= byte(at>>8) | 1
		if _, _, err := scanLog(damaged); !errors.As(err, &ce) {
			t.Fatalf("byte %d damaged: scan err %v, want corruption", int(at)%(len(valid)-last), err)
		}
	})
}
