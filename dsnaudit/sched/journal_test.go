package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/contract"
)

// sampleRecords covers every record type and every flag combination the
// scheduler writes.
func sampleRecords() []journalRecord {
	return []journalRecord{
		{typ: recRegister, addr: "audit:alice:sp-a:f", seq: 7, baseRounds: 2},
		{typ: recSettled, addr: "audit:alice:sp-a:f", round: 3, passed: true},
		{typ: recSettled, addr: "audit:bob:sp-b:g", round: 1, deadline: true},
		{typ: recParked, addr: "audit:bob:sp-b:g", kind: parkRetry, round: 1, height: 99, retries: 4},
		{typ: recParked, addr: "audit:bob:sp-b:g", kind: parkDeadline, round: 2, height: 120},
		{typ: recTerminal, addr: "audit:alice:sp-a:f", state: contract.StateExpired, rounds: 3, passN: 2, failN: 1, errMsg: "responder down"},
		{typ: recTick, height: 42},
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		frame := encodeRecord(want)
		got, n, err := decodeRecord(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", want.typ, err)
		}
		if n != len(frame) {
			t.Fatalf("decode %d consumed %d of %d bytes", want.typ, n, len(frame))
		}
		if got != want {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", want.typ, got, want)
		}
	}
}

func TestJournalAppendReadBack(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Appends != uint64(len(recs)) || st.Bytes == 0 {
		t.Fatalf("stats = %+v after %d appends", st, len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []journalRecord
	for i := 0; i < 2; i++ {
		shard, torn, err := readShardFrom(dir, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if torn != 0 {
			t.Fatalf("shard %d reports %d torn bytes on a clean close", i, torn)
		}
		got = append(got, shard...)
	}
	if len(got) != len(recs) {
		t.Fatalf("read back %d records, wrote %d", len(got), len(recs))
	}
}

// TestJournalTornTailTruncated pins the crash-artifact rule: a half-written
// final frame is expected debris — the scan returns every complete record
// with no error, and OpenJournal truncates the file in place, counting the
// dropped bytes.
func TestJournalTornTailTruncated(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = append(buf, encodeRecord(r)...)
	}
	tail := encodeRecord(journalRecord{typ: recTick, height: 77})
	torn := append(append([]byte(nil), buf...), tail[:len(tail)-3]...)

	got, valid, err := scanRecords(torn, "test")
	if err != nil {
		t.Fatalf("torn tail scanned as error: %v", err)
	}
	if len(got) != len(recs) || valid != len(buf) {
		t.Fatalf("scan = %d records / %d valid bytes, want %d / %d", len(got), valid, len(recs), len(buf))
	}

	dir := t.TempDir()
	if err := os.WriteFile(journalShardPath(dir, 0), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if tb := j.Stats().TornBytes; tb != uint64(len(tail)-3) {
		t.Fatalf("TornBytes = %d, want %d", tb, len(tail)-3)
	}
	onDisk, err := os.ReadFile(journalShardPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf) {
		t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", len(onDisk), len(buf))
	}
}

// TestJournalMidFileCorruption pins the other half of the rule: a damaged
// record with valid records still after it is corruption, not a torn tail —
// a typed error, never a silent truncation of real history.
func TestJournalMidFileCorruption(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = append(buf, encodeRecord(r)...)
	}
	first := len(encodeRecord(recs[0]))
	buf[first/2] ^= 0x20 // damage inside the first record's frame

	if _, _, err := scanRecords(buf, "test"); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("mid-file corruption err = %v, want ErrJournalCorrupt", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(journalShardPath(dir, 0), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, 1); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("OpenJournal on corrupt shard err = %v, want ErrJournalCorrupt", err)
	}
	var ce *JournalCorruptError
	_, err := OpenJournal(dir, 1)
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("corruption not located: %v", err)
	}
}

// TestJournalRejectsRetiredTypes: types 2 and 3 (the challenge and proof
// records a parent-version journal holds) are not half-read — a well-formed,
// correctly checksummed frame of either is rejected exactly like a type that
// never existed: corruption when valid records follow it, a torn tail when
// nothing does.
func TestJournalRejectsRetiredTypes(t *testing.T) {
	before := encodeRecord(journalRecord{typ: recTick, height: 5})
	after := encodeRecord(journalRecord{typ: recSettled, addr: "audit:alice:sp-a:f", round: 3, passed: true})
	for _, typ := range []byte{0, 2, 3, 8} {
		frame := retiredFrame(typ, 3, "audit:alice:sp-a:f")
		if _, n, err := decodeRecord(frame); err != errBadRecord || n != 0 {
			t.Fatalf("type %d: decode = (%d bytes, %v), want errBadRecord", typ, n, err)
		}
		mid := append(append(append([]byte(nil), before...), frame...), after...)
		_, _, err := scanRecords(mid, "test")
		var ce *JournalCorruptError
		if !errors.As(err, &ce) || ce.Offset != int64(len(before)) {
			t.Fatalf("type %d mid-file: err = %v, want corruption at offset %d", typ, err, len(before))
		}
		tail := append(append([]byte(nil), before...), frame...)
		recs, valid, err := scanRecords(tail, "test")
		if err != nil || len(recs) != 1 || valid != len(before) {
			t.Fatalf("type %d at the tail: %d records, %d valid bytes, err %v; want 1, %d, nil", typ, len(recs), valid, err, len(before))
		}
	}
}

// TestJournalMetaPinsShardCount: the shard count is fixed at creation; later
// opens keep it regardless of what the caller passes — a recovered journal
// must route addresses to the same shards the crashed one did.
func TestJournalMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, ask := range []int{0, 2, 16} {
		j, err := OpenJournal(dir, ask)
		if err != nil {
			t.Fatal(err)
		}
		if j.nshards != 4 {
			t.Fatalf("reopen with shards=%d got %d shards, want the recorded 4", ask, j.nshards)
		}
		j.Close()
	}
}

// TestJournalDecoderBoundsAllocation: a header declaring a huge payload
// against a short buffer is a short record (torn-tail signal), and a
// declared length past the cap is garbage — neither may allocate from the
// declared length.
func TestJournalDecoderBoundsAllocation(t *testing.T) {
	huge := []byte{journalMagic[0], journalMagic[1], byte(recTick), 0x00, 0x0f, 0xff, 0xff}
	if _, _, err := decodeRecord(huge); err != errShortRecord {
		t.Fatalf("declared-huge short buffer err = %v, want errShortRecord", err)
	}
	over := []byte{journalMagic[0], journalMagic[1], byte(recTick), 0xff, 0xff, 0xff, 0xff}
	if _, _, err := decodeRecord(over); err != errBadRecord {
		t.Fatalf("over-cap declared length err = %v, want errBadRecord", err)
	}
}

// FuzzJournalRecord feeds the decoder arbitrary bytes: it must never panic
// or over-consume, and anything it accepts must survive a semantic
// re-encode/decode round trip. The shard scanner runs on the same input to
// pin its no-panic guarantee (it either truncates a tail or reports typed
// corruption).
func FuzzJournalRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(encodeRecord(r))
	}
	// The parent version's challenge and proof frames stay in the corpus;
	// they now drive the reject path.
	f.Add(retiredFrame(2, 3, "audit:alice:sp-a:f"))
	f.Add(retiredFrame(3, 3, "audit:alice:sp-a:f"))
	f.Add([]byte{journalMagic[0], journalMagic[1]})
	f.Add([]byte{})
	torn := encodeRecord(journalRecord{typ: recTick, height: 7})
	f.Add(torn[:len(torn)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
		} else {
			if n <= 0 || n > len(data) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(data))
			}
			frame := encodeRecord(rec)
			rec2, n2, err := decodeRecord(frame)
			if err != nil || n2 != len(frame) || rec2 != rec {
				t.Fatalf("re-encode round trip: rec=%+v rec2=%+v n2=%d err=%v", rec, rec2, n2, err)
			}
		}
		recs, valid, err := scanRecords(data, "fuzz")
		if err == nil {
			if valid < 0 || valid > len(data) {
				t.Fatalf("scan valid=%d of %d", valid, len(data))
			}
		} else if !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("scan error %v is not typed corruption", err)
		}
		_ = recs
	})
}

// FuzzDecodeCheckpoint feeds the checkpoint decoder arbitrary bytes: it must
// never panic or size an allocation from a field it has not checked against
// the input, every rejection must be typed corruption, and an accepted
// checkpoint must re-encode to the bytes it was decoded from. The file is
// sealed by a trailing sha256 no mutator gets past, so with reseal set the
// harness recomputes it and the structural checks behind it are reached too.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := encodeCheckpoint(sampleCheckpoint())
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x08
	// An entry count far past what the remaining bytes could hold.
	overcount := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(overcount[len(checkpointMagic)+20+8*2:], 0xffffffff)
	f.Add(valid, false)
	f.Add(valid[:len(valid)-9], false)
	f.Add(flipped, false)
	f.Add(append([]byte(nil), checkpointMagic...), false)
	f.Add(flipped, true)
	f.Add(overcount, true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= sha256.Size {
			data = append([]byte(nil), data...)
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			copy(data[len(body):], sum[:])
		}
		c, err := decodeCheckpoint(data, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("rejection %v is not typed corruption", err)
			}
			return
		}
		if !bytes.Equal(encodeCheckpoint(c), data) {
			t.Fatalf("accepted checkpoint does not re-encode to its input: %+v", c)
		}
	})
}
