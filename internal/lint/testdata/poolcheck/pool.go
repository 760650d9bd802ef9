// Package pooltest is a golden fixture for the poolcheck analyzer.
package pooltest

import (
	"errors"
	"sync"
)

type buffers struct {
	pool sync.Pool
	held any
}

func use(any) {}

func leak(b *buffers, fail bool) error {
	v := b.pool.Get()
	if fail {
		return errors.New("boom") // want `pooled value v \(acquired at line \d+\) is not returned to its pool on this path`
	}
	b.pool.Put(v)
	return nil
}

func balanced(b *buffers, fail bool) error {
	v := b.pool.Get()
	defer b.pool.Put(v)
	if fail {
		return errors.New("boom")
	}
	use(v)
	return nil
}

func escapes(b *buffers) {
	v := b.pool.Get()
	b.held = v // want `pooled value v \(acquired at line \d+\) is stored into a longer-lived structure`
}

func captured(b *buffers) {
	v := b.pool.Get()
	go func() {
		use(v) // want `pooled value v \(acquired at line \d+\) is captured by a goroutine`
	}()
	b.pool.Put(v)
}

func loops(b *buffers, n int) {
	for i := 0; i < n; i++ {
		v := b.pool.Get()
		use(v)
	} // want `pooled value v \(acquired at line \d+\) is acquired inside a loop and not released each iteration`
}

type arena struct{ pool sync.Pool }

func (a *arena) getBuf() []byte {
	if v := a.pool.Get(); v != nil {
		return v.([]byte)
	}
	return make([]byte, 64)
}

func (a *arena) putBuf(b []byte) { a.pool.Put(b) }

func wrapper(a *arena) {
	b := a.getBuf()
	defer a.putBuf(b)
	use(b)
}

// leakOnError is a stripe task whose failure path returns before putting
// its scratch back; the success path is clean.
func leakOnError(a *arena, work func([]byte) error) error {
	b := a.getBuf()
	if err := work(b); err != nil {
		return err // want `pooled value b \(acquired at line \d+\) is not returned to its pool on this path`
	}
	a.putBuf(b)
	return nil
}

func steal(a *arena) []byte {
	b := a.getBuf()
	return b // want `pooled value b \(acquired at line \d+\) escapes by return from a non-getter function`
}

var registry = map[int][]byte{}

func handoff(a *arena) {
	b := a.getBuf()
	//lint:escape the registry owns the buffer after registration; tests drain it explicitly
	registry[0] = b
}
