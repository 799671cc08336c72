package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"
)

// encodeRecord frames one record on its own. Production code only ever
// frames into the journal's buffer (Journal.append); the decoder tests and
// FuzzDecodeRecord's seeds want single frames.
func encodeRecord(r journalRecord) []byte { return appendRecord(nil, r) }

// retiredFrame builds, with a valid checksum, the frame the retired challenge
// (2) and proof (3) records had — round | addr — under any type byte. No
// encoder writes one any more; the decoder tests need them.
func retiredFrame(typ byte, round uint32, addr string) []byte {
	f := []byte{journalMagic[0], journalMagic[1], typ}
	f = binary.BigEndian.AppendUint32(f, uint32(4+len(addr)))
	f = binary.BigEndian.AppendUint32(f, round)
	f = append(f, addr...)
	return binary.BigEndian.AppendUint32(f, crc32.Checksum(f[2:], crc32.MakeTable(crc32.Castagnoli)))
}

// TestAppendRecordGolden pins the framed bytes of every record type: the
// digest was taken from the encoder that built each frame in two fresh
// slices, before records were framed in place, over the sample records of
// the five types that remain.
func TestAppendRecordGolden(t *testing.T) {
	const want = "671bcbc9edfb440711f8087c75e9d28a94d5890c67c981c71dedb26f6e8d6f78"
	h := sha256.New()
	for _, r := range sampleRecords() {
		h.Write(encodeRecord(r))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sample records frame to digest %s, want %s", got, want)
	}
	// The test-only builder makes the frames that encoder made for the two
	// retired types.
	const challenge = "d54a02000000160000000361756469743a616c6963653a73702d613a663c3fb8ce"
	if got := hex.EncodeToString(retiredFrame(2, 3, "audit:alice:sp-a:f")); got != challenge {
		t.Fatalf("retired challenge frame %s, want %s", got, challenge)
	}
}

// TestAppendRecordIntoNonEmptyBuffer: a record framed behind other bytes —
// the only way the journal frames one — leaves them alone, is the same bytes
// as the record framed on its own, and decodes to itself.
func TestAppendRecordIntoNonEmptyBuffer(t *testing.T) {
	prefix := encodeRecord(journalRecord{typ: recTick, height: 9})
	prefix = append(prefix, 0xd5, 0x4a, 0xff) // and a stray magic, so offsets are not frame-aligned
	for _, want := range sampleRecords() {
		buf := appendRecord(append([]byte(nil), prefix...), want)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("record %d: appending rewrote the buffer's prefix", want.typ)
		}
		frame := buf[len(prefix):]
		if !bytes.Equal(frame, encodeRecord(want)) {
			t.Fatalf("record %d: framed behind a prefix it reads %x, alone %x", want.typ, frame, encodeRecord(want))
		}
		got, n, err := decodeRecord(frame)
		if err != nil || n != len(frame) || got != want {
			t.Fatalf("record %d: decoded %+v (%d of %d bytes, err %v), want %+v", want.typ, got, n, len(frame), err, want)
		}
	}
}

// TestJournalAppendDoesNotAllocate: a buffered append — the settled record
// every round writes, the parked mark a failed one does — frames into the
// journal's buffer and allocates nothing once that buffer has grown.
func TestJournalAppendDoesNotAllocate(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := []journalRecord{
		{typ: recSettled, addr: "audit:soak:12345", round: 1, passed: true},
		{typ: recParked, addr: "audit:soak:12345", kind: parkDeadline, round: 2, height: 9},
	}
	round := func() {
		for _, r := range recs {
			if err := j.append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Grow the buffer to its flush size once; from then on a flush
	// resets the length and keeps the array.
	for i := 0; i < 2*journalFlushBytes/(2*32); i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("two buffered appends allocate %.1f times, want 0", allocs)
	}
}
