package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chain"
	"repro/internal/contract"
)

// The checkpoint bounds recovery's replay cost: it snapshots the engagement
// registry — every entry's sequence number, accounting, phase hint and parked
// state — together with the per-shard journal offsets the snapshot is
// consistent with and the last wake height processed. Recover loads the
// checkpoint, then replays only the journal bytes past the recorded offsets.
// The journal is never truncated here; the checkpoint caps how much of it a
// restart must read, not how much disk it holds.
//
// The file is written whole to checkpoint.tmp, synced, renamed into place and
// the directory synced (installFile), and its payload is sealed by a trailing
// sha256. A crash or power loss mid-write therefore leaves either the
// previous complete checkpoint or a torn .tmp — the torn .tmp is expected
// debris and is removed silently; a checkpoint file that itself fails its
// digest is real corruption and surfaces as a typed error.

const (
	checkpointName    = "checkpoint"
	checkpointTmpName = "checkpoint.tmp"
)

var checkpointMagic = []byte{'D', 'S', 'N', 'C', 1}

// ErrCheckpointCorrupt marks a checkpoint file whose digest or structure is
// invalid. A missing checkpoint (journal-only recovery) never produces it.
var ErrCheckpointCorrupt = errors.New("sched: checkpoint corrupt")

// CheckpointCorruptError locates checkpoint corruption. errors.Is matches it
// against ErrCheckpointCorrupt.
type CheckpointCorruptError struct {
	Path   string
	Reason string
}

func (e *CheckpointCorruptError) Error() string {
	return fmt.Sprintf("sched: checkpoint corrupt: %s: %s", e.Path, e.Reason)
}

func (e *CheckpointCorruptError) Is(target error) bool { return target == ErrCheckpointCorrupt }

// checkpointEntry is one registry entry as serialized into a checkpoint.
type checkpointEntry struct {
	addr       chain.Address
	seq        uint64
	baseRounds int
	rounds     int
	passed     int
	failed     int
	retries    int

	// hint records which durable phase the entry was in: 0 live (waiting /
	// proving / settling — recovery re-derives the real phase from the
	// contract), 1 parked at the proof deadline, 2 parked on an overload
	// backoff, 3 terminal.
	hint         uint8
	parkedRound  int
	parkedHeight uint64

	state  contract.State // hint 3 only
	errMsg string         // hint 3 only
}

const (
	hintLive     = 0
	hintDeadline = 1
	hintRetry    = 2
	hintTerminal = 3
)

// checkpointData is a decoded checkpoint.
type checkpointData struct {
	shards   int
	seq      uint64
	lastWake uint64
	offsets  []int64
	entries  []checkpointEntry
}

func encodeCheckpoint(c *checkpointData) []byte {
	buf := append([]byte(nil), checkpointMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.shards))
	buf = binary.BigEndian.AppendUint64(buf, c.seq)
	buf = binary.BigEndian.AppendUint64(buf, c.lastWake)
	for _, off := range c.offsets {
		buf = binary.BigEndian.AppendUint64(buf, uint64(off))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.entries)))
	for _, e := range c.entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.addr)))
		buf = append(buf, e.addr...)
		buf = binary.BigEndian.AppendUint64(buf, e.seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.baseRounds))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.rounds))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.passed))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.failed))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.retries))
		buf = append(buf, e.hint)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.parkedRound))
		buf = binary.BigEndian.AppendUint64(buf, e.parkedHeight)
		buf = append(buf, byte(e.state))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.errMsg)))
		buf = append(buf, e.errMsg...)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func decodeCheckpoint(data []byte, path string) (*checkpointData, error) {
	corrupt := func(reason string) (*checkpointData, error) {
		return nil, &CheckpointCorruptError{Path: path, Reason: reason}
	}
	if len(data) < len(checkpointMagic)+sha256.Size {
		return corrupt("short file")
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if want := sha256.Sum256(body); string(want[:]) != string(sum) {
		return corrupt("digest mismatch")
	}
	for i, b := range checkpointMagic {
		if body[i] != b {
			return corrupt("bad magic")
		}
	}
	p := body[len(checkpointMagic):]
	// The digest already vouches for structure; remaining length checks
	// guard against a malformed writer, not bit rot.
	if len(p) < 4+8+8 {
		return corrupt("truncated header")
	}
	c := &checkpointData{
		shards:   int(binary.BigEndian.Uint32(p)),
		seq:      binary.BigEndian.Uint64(p[4:]),
		lastWake: binary.BigEndian.Uint64(p[12:]),
	}
	p = p[20:]
	if c.shards < 1 || c.shards > 4096 || len(p) < 8*c.shards+4 {
		return corrupt("bad shard count")
	}
	c.offsets = make([]int64, c.shards)
	for i := range c.offsets {
		c.offsets[i] = int64(binary.BigEndian.Uint64(p))
		p = p[8:]
	}
	// An entry's fixed fields, its address and error text being empty.
	const entryMin = 2 + 8 + 4 + 4 + 4 + 4 + 4 + 1 + 4 + 8 + 1 + 2
	n := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if n < 0 || n > len(p)/entryMin {
		return corrupt("bad entry count")
	}
	c.entries = make([]checkpointEntry, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < entryMin {
			return corrupt("truncated entry")
		}
		alen := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if len(p) < alen+entryMin-2 {
			return corrupt("truncated entry")
		}
		var e checkpointEntry
		e.addr = chain.Address(p[:alen])
		p = p[alen:]
		e.seq = binary.BigEndian.Uint64(p)
		e.baseRounds = int(binary.BigEndian.Uint32(p[8:]))
		e.rounds = int(binary.BigEndian.Uint32(p[12:]))
		e.passed = int(binary.BigEndian.Uint32(p[16:]))
		e.failed = int(binary.BigEndian.Uint32(p[20:]))
		e.retries = int(binary.BigEndian.Uint32(p[24:]))
		e.hint = p[28]
		e.parkedRound = int(binary.BigEndian.Uint32(p[29:]))
		e.parkedHeight = binary.BigEndian.Uint64(p[33:])
		e.state = contract.State(p[41])
		elen := int(binary.BigEndian.Uint16(p[42:]))
		p = p[44:]
		if len(p) < elen {
			return corrupt("truncated entry error")
		}
		e.errMsg = string(p[:elen])
		p = p[elen:]
		c.entries = append(c.entries, e)
	}
	if len(p) != 0 {
		return corrupt("trailing bytes")
	}
	return c, nil
}

// loadCheckpoint reads dir's checkpoint if present, removing any torn .tmp
// left by a crash mid-checkpoint. (nil, nil) means no checkpoint: recovery
// replays the journal from the start.
func loadCheckpoint(dir string) (*checkpointData, error) {
	// A crash between writing checkpoint.tmp and renaming it leaves the tmp
	// behind; the previous complete checkpoint (if any) is still authoritative.
	os.Remove(filepath.Join(dir, checkpointTmpName))
	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sched: read checkpoint: %w", err)
	}
	return decodeCheckpoint(data, path)
}

// writeCheckpoint snapshots the scheduler's registry and journal offsets to
// disk. It runs on the Run goroutine at the end of a tick; entry fields are
// read under the store lock and no contract is touched (settling entries'
// contracts are owned by the settlement stage at this point).
func (s *Scheduler) writeCheckpoint() error {
	// The journal's buffers must hit disk (synced) before the offsets are
	// read: a checkpoint's offsets may only ever point at bytes that exist,
	// or replay would start past records the crash still owed.
	if err := s.jbarrier(true); err != nil {
		return err
	}
	c := &checkpointData{
		shards:   s.journal.nshards,
		lastWake: s.lastWake,
		offsets:  s.journal.offsets(),
	}
	s.store.mu.Lock()
	c.seq = s.store.seq
	c.entries = make([]checkpointEntry, 0, len(s.store.byID))
	for _, en := range s.store.byID {
		ce := checkpointEntry{
			addr:       en.eng.ID(),
			seq:        en.seq,
			baseRounds: en.baseRounds,
			rounds:     en.result.Rounds,
			passed:     en.result.Passed,
			failed:     en.result.Failed,
			retries:    en.retries,
		}
		switch en.phase {
		case phaseDeadline:
			ce.hint = hintDeadline
			ce.parkedRound = en.parkedRound
			ce.parkedHeight = en.parkedHeight
		case phaseRetry:
			ce.hint = hintRetry
			ce.parkedRound = en.parkedRound
			ce.parkedHeight = en.parkedHeight
		case phaseDone:
			ce.hint = hintTerminal
			ce.state = en.result.State
			if en.result.Err != nil {
				ce.errMsg = en.result.Err.Error()
			}
		default:
			ce.hint = hintLive
		}
		c.entries = append(c.entries, ce)
	}
	s.store.mu.Unlock()

	buf := encodeCheckpoint(c)
	tmp := filepath.Join(s.journal.dir, checkpointTmpName)
	if s.crashAt(CrashMidCheckpoint) {
		// Simulate dying partway through the tmp write: leave a torn tmp on
		// disk. The previous checkpoint and the journal remain authoritative.
		torn := buf[:len(buf)-sha256.Size/2]
		os.WriteFile(tmp, torn, 0o644)
		return ErrCrashed
	}
	if err := installFile(tmp, filepath.Join(s.journal.dir, checkpointName), buf); err != nil {
		return fmt.Errorf("sched: install checkpoint: %w", err)
	}
	s.journal.mu.Lock()
	s.journal.stats.Checkpoints++
	s.journal.mu.Unlock()
	return nil
}

// installFile replaces path with data so that power loss at any moment leaves
// either the old file or the new one whole: the bytes are synced under the
// tmp name before the rename, and the directory after it — without the first
// the rename can reach the disk ahead of the data, without the second it may
// not reach it at all.
func installFile(tmp, path string, data []byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
