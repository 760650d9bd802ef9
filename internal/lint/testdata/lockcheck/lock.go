// Package locktest is a golden fixture for the lockcheck analyzer. Its
// synthetic import path ends in /raid so the write-bracketing rule applies.
package locktest

import "sync"

type dev struct{}

func (dev) ReadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (dev) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }

type array struct {
	opMu    sync.RWMutex
	failMu  sync.Mutex
	stripes [4]sync.Mutex
	d       dev
}

func (a *array) lockStripe(i int) *sync.Mutex { return &a.stripes[i&3] }

func (a *array) badOrder() {
	a.failMu.Lock()
	a.opMu.Lock() // want `lock ordering violation: opMu lock \(rank 0\) acquired while holding a failMu lock \(rank 3\)`
	a.opMu.Unlock()
	a.failMu.Unlock()
}

func (a *array) goodOrder() {
	a.opMu.RLock()
	a.failMu.Lock()
	a.failMu.Unlock()
	a.opMu.RUnlock()
}

func (a *array) lockArray() {
	a.opMu.Lock()
	a.opMu.Unlock()
}

func (a *array) badTransitive() {
	a.failMu.Lock()
	defer a.failMu.Unlock()
	a.lockArray() // want `call to .*lockArray may acquire a opMu lock \(rank 0\) while holding a failMu lock \(rank 3\)`
}

func (a *array) writeRaw(p []byte) {
	_, _ = a.d.WriteAt(p, 0)
}

func (a *array) WriteLocked(p []byte) {
	mu := a.lockStripe(0)
	mu.Lock()
	defer mu.Unlock()
	a.writeRaw(p)
}

func (a *array) WriteMaintenance(p []byte) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.writeRaw(p)
}

func (a *array) WriteUnlocked(p []byte) { // want `device write reachable without a per-stripe lock or exclusive opMu`
	a.writeRaw(p)
}

// WriteShared holds opMu only shared, which lets the data path run beside
// it: a maintenance pass (Scrub, Rebuild) must hold it exclusively.
func (a *array) WriteShared(p []byte) { // want `device write reachable without a per-stripe lock or exclusive opMu`
	a.opMu.RLock()
	defer a.opMu.RUnlock()
	a.writeRaw(p)
}
