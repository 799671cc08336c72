package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// encodeRecord frames one record on its own. Production code only ever
// frames into a shard's buffer (Journal.append); the decoder tests and
// FuzzDecodeRecord's seeds want single frames.
func encodeRecord(r journalRecord) []byte { return appendRecord(nil, r) }

// TestAppendRecordGolden pins the framed bytes of every record type: the
// digest was taken from the encoder that built each frame in two fresh
// slices, before records were framed in place.
func TestAppendRecordGolden(t *testing.T) {
	const want = "9b2d9600b16202bdb16a4916f75acb4e6d462cc85e805a0a3188c77d83ddf58f"
	h := sha256.New()
	for _, r := range sampleRecords() {
		h.Write(encodeRecord(r))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sample records frame to digest %s, want %s", got, want)
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

// TestJournalAppendDoesNotAllocate: a buffered append — the challenge, proof
// and settled records every round writes — frames into the shard's buffer and
// allocates nothing once that buffer has grown.
func TestJournalAppendDoesNotAllocate(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := []journalRecord{
		{typ: recChallenge, addr: "audit:soak:12345", round: 1},
		{typ: recProof, addr: "audit:soak:12345", round: 1},
		{typ: recSettled, addr: "audit:soak:12345", round: 1, passed: true},
	}
	round := func() {
		for _, r := range recs {
			if err := j.append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Grow every shard buffer to its flush size once; from then on a flush
	// resets the length and keeps the array.
	for i := 0; i < 2*journalFlushBytes/(3*32); i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("three buffered appends allocate %.1f times, want 0", allocs)
	}
}
