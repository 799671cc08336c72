package reclog

import (
	"encoding/binary"
	"errors"
	"testing"
)

var testMagic = Magic{0x7e, 0x57}

// frame is a decoded test record: its type and payload.
type frame struct {
	typ     byte
	payload string
}

func decodeFrame(buf []byte) (frame, int, error) {
	typ, p, n, err := testMagic.Frame(buf)
	return frame{typ, string(p)}, n, err
}

// testLog frames the given payloads, the i-th with type i+1, and returns the
// log and the offset at which each record starts.
func testLog(payloads ...string) ([]byte, []int) {
	var log []byte
	starts := make([]int, len(payloads))
	for i, p := range payloads {
		starts[i] = len(log)
		log = append(testMagic.Begin(log, byte(i+1)), p...)
		log = End(log, starts[i])
	}
	return log, starts
}

// TestScanTruncatesCutTail: a log cut anywhere inside its last record scans
// to the records before it, and its valid length is where the last one
// starts.
func TestScanTruncatesCutTail(t *testing.T) {
	log, starts := testLog("first", "", "third record")
	last := starts[len(starts)-1]
	for cut := last + 1; cut < len(log); cut++ {
		recs, valid, err := Scan(testMagic, log[:cut], decodeFrame)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if valid != last || len(recs) != 2 || recs[0] != (frame{1, "first"}) || recs[1] != (frame{2, ""}) {
			t.Fatalf("cut at %d: %d records %v, %d valid bytes; want the first two, %d bytes", cut, len(recs), recs, valid, last)
		}
	}
	recs, valid, err := Scan(testMagic, log, decodeFrame)
	if err != nil || valid != len(log) || len(recs) != 3 || recs[2] != (frame{3, "third record"}) {
		t.Fatalf("whole log: %v, %d of %d bytes, %v", recs, valid, len(log), err)
	}
}

// TestScanDamageBeforeValidRecordIsCorrupt: a record damaged anywhere — its
// magic, type, length, payload or checksum — with a valid record after it
// is a *CorruptError at the damaged record's offset, never a torn tail.
func TestScanDamageBeforeValidRecordIsCorrupt(t *testing.T) {
	log, starts := testLog("first", "second", "third")
	for at := starts[1]; at < starts[2]; at++ {
		bad := append([]byte(nil), log...)
		bad[at] ^= 0x40
		_, _, err := Scan(testMagic, bad, decodeFrame)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset != starts[1] {
			t.Fatalf("byte %d damaged: err %v, want a CorruptError at %d", at, err, starts[1])
		}
	}
}

// TestFrameRefusesOversizedPayload: a header declaring more than maxPayload
// bytes is ErrBad at once, whatever follows, and framing it allocates
// nothing.
func TestFrameRefusesOversizedPayload(t *testing.T) {
	buf := testMagic.Begin(nil, 1)
	binary.BigEndian.PutUint32(buf[3:], maxPayload+1)
	buf = append(buf, make([]byte, 64)...)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _, err = testMagic.Frame(buf)
	})
	if !errors.Is(err, ErrBad) || allocs != 0 {
		t.Fatalf("declared %d-byte payload: err %v with %v allocations, want ErrBad with none", maxPayload+1, err, allocs)
	}
	if _, _, err := Scan(testMagic, buf, decodeFrame); err != nil {
		t.Fatalf("an oversized last record is a torn tail, got %v", err)
	}
}
