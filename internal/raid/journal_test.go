package raid

import (
	"bytes"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
)

func newJournaledArray(t *testing.T, stripes int64, journalBytes int64) (*Array, []*blockdev.MemDevice, *blockdev.MemDevice) {
	t.Helper()
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	mems := make([]*blockdev.MemDevice, code.Cols())
	devSize := stripes * int64(code.Rows()) * elemSize
	for i := range devs {
		mems[i] = blockdev.NewMem(devSize)
		devs[i] = mems[i]
	}
	jdev := blockdev.NewMem(journalBytes)
	a, err := NewJournaled(code, devs, elemSize, stripes, jdev, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, mems, jdev
}

func remount(t *testing.T, mems []*blockdev.MemDevice, stripes int64, jdev *blockdev.MemDevice) *Array {
	t.Helper()
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, len(mems))
	for i := range mems {
		devs[i] = mems[i]
	}
	a, err := NewJournaled(code, devs, elemSize, stripes, jdev, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestJournaledNormalOperation(t *testing.T) {
	a, mems, jdev := newJournaledArray(t, 4, 4096)
	data := pattern(int(a.Size()), 70)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Clean shutdown: remount finds nothing to replay and data is intact.
	b := remount(t, mems, 4, jdev)
	got := make([]byte, b.Size())
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across clean remount")
	}
	if fixed, err := b.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("clean remount scrub: fixed=%d err=%v", fixed, err)
	}
}

// The write-hole scenario: power is lost after the data element lands but
// before the parity updates do, and before the commit record. Without a
// journal the stripe is silently inconsistent; with it, mount-time replay
// re-encodes the parity.
func TestJournalClosesWriteHole(t *testing.T) {
	const stripes = 4
	a, mems, jdev := newJournaledArray(t, stripes, 4096)
	base := pattern(int(a.Size()), 71)
	if _, err := a.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}

	// Find the element and its parity disks for data element 0.
	code := a.Code()
	co := code.DataCoord(0)
	// "Power loss": the parity disks' caches drop everything from now on,
	// and the journal device accepts exactly one more write (the intent).
	for _, gi := range code.UpdateGroups(co.Row, co.Col) {
		p := code.Groups()[gi].Parity
		mems[p.Col].SetWriteLimit(0)
	}
	jdev.SetWriteLimit(1)

	patch := pattern(elemSize, 99)
	if _, err := a.WriteAt(patch, 0); err != nil {
		t.Fatal(err) // the writes "succeed" — the losses are silent
	}

	// Restore power: lift the write limits.
	for _, m := range mems {
		m.SetWriteLimit(-1)
	}
	jdev.SetWriteLimit(-1)

	// Control: without replay the stripe really is inconsistent.
	{
		devs := make([]blockdev.Device, len(mems))
		for i := range mems {
			devs[i] = mems[i]
		}
		plain, err := New(code, devs, elemSize, stripes)
		if err != nil {
			t.Fatal(err)
		}
		if fixed, err := plain.Scrub(); err != nil || fixed != 1 {
			t.Fatalf("write hole not present: fixed=%d err=%v", fixed, err)
		}
		// Undo the scrub's repair to test the journal path properly:
		// re-corrupt by dropping parity again and rewriting the element.
		for _, gi := range code.UpdateGroups(co.Row, co.Col) {
			p := code.Groups()[gi].Parity
			mems[p.Col].SetWriteLimit(0)
		}
		if _, err := plain.WriteAt(pattern(elemSize, 123), 0); err != nil {
			t.Fatal(err)
		}
		for _, m := range mems {
			m.SetWriteLimit(-1)
		}
	}

	// Journaled remount replays the dirty stripe.
	b := remount(t, mems, stripes, jdev)
	if fixed, err := b.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("journal replay left %d inconsistent stripes (err=%v)", fixed, err)
	}
	// And a second remount has nothing left to do (intents were paired).
	c := remount(t, mems, stripes, jdev)
	if fixed, err := c.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("second remount scrub: fixed=%d err=%v", fixed, err)
	}
}

func TestJournalWraps(t *testing.T) {
	// A tiny journal (8 slots) must survive far more writes than slots.
	a, mems, jdev := newJournaledArray(t, 4, 8*journalSlotSize)
	for i := 0; i < 50; i++ {
		if _, err := a.WriteAt(pattern(100, byte(i)), int64(i%3)*700); err != nil {
			t.Fatal(err)
		}
	}
	b := remount(t, mems, 4, jdev)
	if fixed, err := b.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("wrapped journal remount: fixed=%d err=%v", fixed, err)
	}
}

func TestJournalIgnoresGarbage(t *testing.T) {
	jdev := blockdev.NewMem(4096)
	junk := make([]byte, 4096)
	for i := range junk {
		junk[i] = byte(i * 31)
	}
	jdev.WriteAt(junk, 0)
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		devs[i] = blockdev.NewMem(4 * int64(code.Rows()) * elemSize)
	}
	if _, err := NewJournaled(code, devs, elemSize, 4, jdev, nil); err != nil {
		t.Fatalf("garbage journal rejected: %v", err)
	}
}

func TestJournalTooSmall(t *testing.T) {
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		devs[i] = blockdev.NewMem(4 * int64(code.Rows()) * elemSize)
	}
	if _, err := NewJournaled(code, devs, elemSize, 4, blockdev.NewMem(64), nil); err == nil {
		t.Fatal("undersized journal accepted")
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	for _, r := range []journalRecord{
		{typ: recIntent, seq: 0, stripe: 0},
		{typ: recCommit, seq: 1 << 60, stripe: 1 << 40},
		{typ: recIntent, seq: 12345, stripe: 7},
	} {
		got, ok := parseJournalRecord(r.marshal())
		if !ok || got != r {
			t.Fatalf("record %+v did not round trip (got %+v ok=%v)", r, got, ok)
		}
	}
	if _, ok := parseJournalRecord(make([]byte, journalSlotSize)); ok {
		t.Fatal("zero slot parsed as a record")
	}
	bad := (journalRecord{typ: recIntent, seq: 5, stripe: 6}).marshal()
	bad[9] ^= 1 // corrupt the seq
	if _, ok := parseJournalRecord(bad); ok {
		t.Fatal("corrupted record accepted")
	}
}

func TestJournaledRefusesDirtyDegradedMount(t *testing.T) {
	a, mems, jdev := newJournaledArray(t, 4, 4096)
	if _, err := a.WriteAt(pattern(int(a.Size()), 80), 0); err != nil {
		t.Fatal(err)
	}
	// Crash leaving an unpaired intent.
	jdev.SetWriteLimit(1)
	if _, err := a.WriteAt(pattern(64, 81), 0); err != nil {
		t.Fatal(err)
	}
	jdev.SetWriteLimit(-1)
	// A disk dies before remount: replay must be refused.
	mems[1].Fail()
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, len(mems))
	for i := range mems {
		devs[i] = mems[i]
	}
	arr, err := NewJournaled(code, devs, elemSize, 4, jdev, nil)
	// The failure is silent, so mounting succeeds but replay's first read
	// marks the disk and errors out — either a refusal error or a replay
	// error is acceptable, never a silent success.
	if err == nil {
		// Replay happened to avoid the dead disk entirely only if the read
		// path never touched it — verify the array noticed nothing wrong.
		if fixed, serr := arr.Scrub(); serr == nil && fixed != 0 {
			t.Fatalf("dirty degraded mount silently produced inconsistency (fixed=%d)", fixed)
		}
	}
}

func TestJournaledRejectsBadGeometry(t *testing.T) {
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, 3) // wrong device count
	if _, err := NewJournaled(code, devs, elemSize, 4, blockdev.NewMem(4096), nil); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

// Stale intents referring to stripes beyond the current geometry are
// committed away without replay.
func TestJournalIgnoresOutOfRangeStripes(t *testing.T) {
	jdev := blockdev.NewMem(4096)
	j, _, err := openJournal(jdev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.log(recIntent, 0, 999999); err != nil {
		t.Fatal(err)
	}
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		devs[i] = blockdev.NewMem(4 * int64(code.Rows()) * elemSize)
	}
	a, err := NewJournaled(code, devs, elemSize, 4, jdev, nil)
	if err != nil {
		t.Fatalf("stale out-of-range intent broke the mount: %v", err)
	}
	// And the intent was paired: a remount sees nothing dirty.
	if _, dirty, err := openJournal(jdev); err != nil || len(dirty) != 0 {
		t.Fatalf("stale intent not cleared: dirty=%v err=%v", dirty, err)
	}
	_ = a
}

// Commits carry their intent's sequence number, so concurrent stripe writes
// leave the ring out of seq order (I1 I2 C2 C1). A clean remount must not
// resume appending over C1: that leaves I1 unpaired, and a later mount with a
// disk down refuses to replay it.
func TestJournalRemountAfterOutOfOrderCommits(t *testing.T) {
	a, mems, jdev := newJournaledArray(t, 4, 4096)
	if _, err := a.WriteAt(pattern(int(a.Size()), 90), 0); err != nil {
		t.Fatal(err)
	}
	// Two concurrent stripe writes whose commits land in reverse order.
	s1, err := a.jnl.log(recIntent, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.jnl.log(recIntent, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.jnl.log(recCommit, s2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.jnl.log(recCommit, s1, 1); err != nil {
		t.Fatal(err)
	}

	b := remount(t, mems, 4, jdev)
	if _, err := b.WriteAt(pattern(elemSize, 91), 0); err != nil { // one stripe write
		t.Fatal(err)
	}
	if _, dirty, err := openJournal(jdev); err != nil || len(dirty) != 0 {
		t.Fatalf("every write committed, yet dirty=%v err=%v", dirty, err)
	}
	mems[1].Fail()
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, len(mems))
	for i := range mems {
		devs[i] = mems[i]
	}
	if _, err := NewJournaled(code, devs, elemSize, 4, jdev, nil); err != nil {
		t.Fatalf("clean journal refused with a disk down: %v", err)
	}
}

// A wrap can put a commit in a lower slot than its intent; the scan pairs
// them by sequence number all the same.
func TestJournalPairsAcrossWrap(t *testing.T) {
	jdev := blockdev.NewMem(5 * journalSlotSize)
	j, _, err := openJournal(jdev)
	if err != nil {
		t.Fatal(err)
	}
	for si := int64(0); si < 3; si++ { // I C I C I | C lands in slot 0
		seq, err := j.log(recIntent, 0, si)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.log(recCommit, seq, si); err != nil {
			t.Fatal(err)
		}
	}
	if _, dirty, err := openJournal(jdev); err != nil || len(dirty) != 0 {
		t.Fatalf("every intent committed, yet dirty=%v err=%v", dirty, err)
	}
}

// Replay reads each dirty stripe whole; a disk found dead there means the
// stripe's parity cannot be checked against its data, so the mount fails
// instead of re-encoding from reconstructed cells.
func TestJournalReplayRefusesDiskFoundDead(t *testing.T) {
	a, mems, jdev := newJournaledArray(t, 4, 4096)
	if _, err := a.WriteAt(pattern(int(a.Size()), 92), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.jnl.log(recIntent, 0, 0); err != nil { // a crash mid-write
		t.Fatal(err)
	}
	mems[2].Fail()
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, len(mems))
	for i := range mems {
		devs[i] = mems[i]
	}
	if _, err := NewJournaled(code, devs, elemSize, 4, jdev, nil); err == nil {
		t.Fatal("replay over a dead disk mounted")
	}
}
