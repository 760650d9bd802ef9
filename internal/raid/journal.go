package raid

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dcode/internal/blockdev"
	"dcode/internal/erasure"
	"dcode/internal/trace"
)

// The write-intent journal closes the RAID write hole: a crash between a
// data write and its parity updates leaves a stripe whose parity disagrees
// with its data, silently corrupting any later reconstruction. With a
// journal attached, every stripe mutation is bracketed by an intent record
// (before touching the devices) and a commit record (after); on mount,
// stripes whose intent has no matching commit get their parity recomputed
// from data.

const (
	journalMagic    = 0x4A524E4C // "JRNL"
	journalSlotSize = 32
	recIntent       = 1
	recCommit       = 2
)

// journal is a ring of fixed-size records on a dedicated device.
type journal struct {
	dev   blockdev.Device
	mu    sync.Mutex
	seq   uint64
	slot  int64
	slots int64
}

type journalRecord struct {
	typ    byte
	seq    uint64
	stripe int64
}

func (r journalRecord) marshal() []byte {
	var b [journalSlotSize]byte
	binary.LittleEndian.PutUint32(b[0:], journalMagic)
	b[4] = r.typ
	binary.LittleEndian.PutUint64(b[8:], r.seq)
	binary.LittleEndian.PutUint64(b[16:], uint64(r.stripe))
	binary.LittleEndian.PutUint64(b[24:], r.checksum())
	return b[:]
}

func (r journalRecord) checksum() uint64 {
	return uint64(journalMagic) ^ uint64(r.typ)<<56 ^ r.seq ^ uint64(r.stripe)*0x9E3779B97F4A7C15
}

func parseJournalRecord(b []byte) (journalRecord, bool) {
	if binary.LittleEndian.Uint32(b[0:]) != journalMagic {
		return journalRecord{}, false
	}
	r := journalRecord{
		typ:    b[4],
		seq:    binary.LittleEndian.Uint64(b[8:]),
		stripe: int64(binary.LittleEndian.Uint64(b[16:])),
	}
	if r.typ != recIntent && r.typ != recCommit {
		return journalRecord{}, false
	}
	if binary.LittleEndian.Uint64(b[24:]) != r.checksum() {
		return journalRecord{}, false
	}
	return r, true
}

// openJournal scans the device and returns the journal, appending at slot 0
// with a sequence number above every record's, plus the uncommitted intents
// (seq -> stripe). An intent and its commit pair by sequence number wherever
// the ring put them: concurrent stripe writes commit out of order, and a wrap
// can put a commit in a lower slot than its intent. The caller clears the
// ring before appending (NewJournaled), so no write head is looked for.
func openJournal(dev blockdev.Device) (*journal, map[uint64]int64, error) {
	slots := dev.Size() / journalSlotSize
	if slots < 4 {
		return nil, nil, fmt.Errorf("raid: journal device too small (%d bytes)", dev.Size())
	}
	j := &journal{dev: dev, slots: slots}
	intents := make(map[uint64]int64) // seq -> stripe
	committed := make(map[uint64]bool)
	var maxSeq uint64
	buf := make([]byte, journalSlotSize)
	for s := int64(0); s < slots; s++ {
		if _, err := dev.ReadAt(buf, s*journalSlotSize); err != nil {
			return nil, nil, fmt.Errorf("raid: reading journal slot %d: %w", s, err)
		}
		r, ok := parseJournalRecord(buf)
		if !ok {
			continue
		}
		switch r.typ {
		case recIntent:
			intents[r.seq] = r.stripe
		case recCommit:
			committed[r.seq] = true
		}
		maxSeq = max(maxSeq, r.seq)
	}
	for seq := range committed {
		delete(intents, seq)
	}
	j.seq = maxSeq + 1
	return j, intents, nil
}

// log appends one record and returns its sequence number.
func (j *journal) log(typ byte, seq uint64, stripe int64) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if typ == recIntent {
		seq = j.seq
		j.seq++
	}
	rec := journalRecord{typ: typ, seq: seq, stripe: stripe}
	if _, err := j.dev.WriteAt(rec.marshal(), j.slot*journalSlotSize); err != nil {
		return 0, fmt.Errorf("raid: writing journal: %w", err)
	}
	j.slot = (j.slot + 1) % j.slots
	return seq, nil
}

// NewJournaled assembles an array with a write-intent journal on a dedicated
// device and replays it: stripes left dirty by a crash get their parity
// recomputed from data (the scrub's stripe task) before the array is
// returned. failed lists columns already known dead (a saved failed set);
// they are failed before replay. Replay requires a healthy array — with
// disks missing, stale parity cannot be told apart from stale data, so
// mounting dirty and degraded is refused, and so is a replay whose read finds
// a disk dead. Once every intent is resolved, one write clears the ring,
// which this mount then fills from slot 0.
//
//lint:ignore lockcheck journal replay writes stripes during construction, before the array is returned to any caller — no concurrent operation can hold or need the per-stripe locks yet
func NewJournaled(code *erasure.Code, devs []blockdev.Device, elemSize int, stripes int64,
	journalDev blockdev.Device, failed []int, opts ...Option) (*Array, error) {
	a, err := New(code, devs, elemSize, stripes, opts...)
	if err != nil {
		return nil, err
	}
	for _, col := range failed {
		if err := a.FailDisk(col); err != nil {
			return nil, err
		}
	}
	jnl, dirty, err := openJournal(journalDev)
	if err != nil {
		return nil, err
	}
	if len(dirty) > 0 && a.failedCount() > 0 {
		return nil, fmt.Errorf("raid: %d dirty stripes in journal but array is degraded; replace disks first", len(dirty))
	}
	scrubbed := make(map[int64]bool, len(dirty))
	for _, si := range dirty {
		if si >= 0 && si < stripes && !scrubbed[si] {
			if _, err := a.scrubStripeTask(si, trace.Link{}); err != nil {
				return nil, fmt.Errorf("raid: replaying journal for stripe %d: %w", si, err)
			}
			scrubbed[si] = true
		}
	}
	if _, err := journalDev.WriteAt(make([]byte, jnl.slots*journalSlotSize), 0); err != nil {
		return nil, fmt.Errorf("raid: clearing journal: %w", err)
	}
	a.jnl = jnl
	return a, nil
}
