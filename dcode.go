package dcode

import (
	"dcode/internal/blaumroth"
	"dcode/internal/blockdev"
	"dcode/internal/core"
	"dcode/internal/crs"
	"dcode/internal/erasure"
	"dcode/internal/evenodd"
	"dcode/internal/hcode"
	"dcode/internal/hdp"
	"dcode/internal/liberation"
	"dcode/internal/pcode"
	"dcode/internal/raid"
	"dcode/internal/rdp"
	"dcode/internal/rs"
	"dcode/internal/stripe"
	"dcode/internal/xcode"
)

// Code is an XOR-based RAID-6 array code over a rows×cols stripe of
// elements; every constructor in this package returns one. See the methods
// on erasure.Code: NewStripe, Encode, Verify, Reconstruct, UpdateData,
// ComputeMetrics, and the layout accessors.
type Code = erasure.Code

// Coord addresses one element of a stripe by (Row, Col).
type Coord = erasure.Coord

// Group is one parity equation of a code.
type Group = erasure.Group

// Stripe is a rows×cols matrix of fixed-size byte elements.
type Stripe = stripe.Stripe

// Metrics carries a code's analytic complexity figures (paper §III-D).
type Metrics = erasure.Metrics

// New constructs D-Code over n disks; n must be a prime ≥ 5. This is the
// paper's contribution: horizontal parities over runs of consecutive data
// elements plus deployment parities, all stored in the last two rows.
func New(n int) (*Code, error) { return core.New(n) }

// NewXCode constructs X-Code over p disks (p prime ≥ 5).
func NewXCode(p int) (*Code, error) { return xcode.New(p) }

// NewRDP constructs the Row-Diagonal Parity code over p+1 disks (p prime ≥ 5).
func NewRDP(p int) (*Code, error) { return rdp.New(p) }

// NewShortenedRDP constructs an RDP array with exactly k data disks (k+2
// disks total, any k ≥ 2) by code shortening over the next prime.
func NewShortenedRDP(k int) (*Code, error) { return rdp.NewShortened(k) }

// NewHCode constructs H-Code over p+1 disks (p prime ≥ 5).
func NewHCode(p int) (*Code, error) { return hcode.New(p) }

// NewHDP constructs the HDP code over p-1 disks (p prime ≥ 5).
func NewHDP(p int) (*Code, error) { return hdp.New(p) }

// NewEVENODD constructs the EVENODD code over p+2 disks (p prime ≥ 5).
func NewEVENODD(p int) (*Code, error) { return evenodd.New(p) }

// NewPCode constructs P-Code over p-1 disks (p prime ≥ 5).
func NewPCode(p int) (*Code, error) { return pcode.New(p) }

// NewLiberation constructs Plank's Liberation code with k data disks over
// prime packet width w ≥ k (k+2 disks total, w packets per element).
func NewLiberation(k, w int) (*Code, error) { return liberation.New(k, w) }

// NewBlaumRoth constructs a Blaum-Roth code with k data disks over the ring
// GF(2)[x]/M_p(x) (k+2 disks total, p-1 packets per element; k ≤ p-1).
func NewBlaumRoth(k, p int) (*Code, error) { return blaumroth.New(k, p) }

// VerifyMDS exhaustively checks that a code survives every single- and
// double-column erasure (see DESIGN.md §4).
func VerifyMDS(c *Code, elemSize int) error { return erasure.VerifyMDS(c, elemSize) }

// ReedSolomon is a systematic Reed-Solomon encoder over GF(2^8); with two
// parity shards it is the general-purpose RAID-6 baseline of the paper's
// related work.
type ReedSolomon = rs.Encoder

// NewReedSolomon constructs a Reed-Solomon code with k data and m parity
// shards (k+m ≤ 256).
func NewReedSolomon(k, m int) (*ReedSolomon, error) { return rs.New(k, m) }

// CauchyReedSolomon is the XOR-only bit-matrix variant of Reed-Solomon
// (Blömer et al.), Jerasure's core coding technique.
type CauchyReedSolomon = crs.Encoder

// NewCauchyReedSolomon constructs a Cauchy Reed-Solomon code with k data and
// m parity shards (k+m ≤ 256); shard sizes must be multiples of 8.
func NewCauchyReedSolomon(k, m int) (*CauchyReedSolomon, error) { return crs.New(k, m) }

// Array is a software RAID-6 volume over block devices; it serves arbitrary
// byte-ranged reads and writes, survives up to two disk failures, rebuilds
// replacements and scrubs parity.
type Array = raid.Array

// Device is the block-device interface arrays store columns on.
type Device = blockdev.Device

// MemDevice is an in-memory Device with fault injection (Fail, Replace,
// InjectBadSector, Corrupt).
type MemDevice = blockdev.MemDevice

// ArrayOption configures an Array at construction time.
type ArrayOption = raid.Option

// WithConcurrency bounds the number of goroutines an array uses for stripe
// pipelining and per-device fan-out. 1 makes the array fully serial; omitted
// or ≤ 0 uses GOMAXPROCS.
func WithConcurrency(n int) ArrayOption { return raid.WithConcurrency(n) }

// NewArray assembles a RAID-6 volume from one device per column of the code,
// with the given element size and stripe count.
func NewArray(c *Code, devs []Device, elemSize int, stripes int64, opts ...ArrayOption) (*Array, error) {
	return raid.New(c, devs, elemSize, stripes, opts...)
}

// NewJournaledArray is NewArray with a write-intent journal on a dedicated
// device: stripe mutations are bracketed by intent/commit records, and
// mounting replays uncommitted stripes so a crash between a data write and
// its parity updates (the RAID write hole) cannot silently corrupt later
// reconstructions.
func NewJournaledArray(c *Code, devs []Device, elemSize int, stripes int64, journal Device, opts ...ArrayOption) (*Array, error) {
	return raid.NewJournaled(c, devs, elemSize, stripes, journal, nil, opts...)
}

// NewMemDevice allocates a zeroed in-memory block device. On Linux one of
// 2 MiB or more is a mapping on huge pages; Close releases it, and so does
// the collector once the device is unreachable. An array column that is a
// bare MemDevice lends its bytes to Rebuild and degraded reads, which fold
// from it without copying.
func NewMemDevice(size int64) *MemDevice { return blockdev.NewMem(size) }

// OpenFileDevice creates or opens a file-backed block device of the given
// size.
func OpenFileDevice(path string, size int64) (Device, error) {
	return blockdev.OpenFile(path, size)
}
