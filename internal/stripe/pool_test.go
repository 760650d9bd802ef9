package stripe

import "testing"

func TestPoolRoundTrip(t *testing.T) {
	p := NewPool(3, 5, 16)
	s := p.Get()
	if s.Rows() != 3 || s.Cols() != 5 || s.ElemSize() != 16 {
		t.Fatalf("pooled stripe geometry %dx%d/%d", s.Rows(), s.Cols(), s.ElemSize())
	}
	s.Fill(9)
	p.Put(s)
	// Pooled stripes come back with arbitrary contents; the pool only
	// guarantees geometry. Callers must overwrite or Zero.
	s2 := p.Get()
	if s2.Rows() != 3 || s2.Cols() != 5 || s2.ElemSize() != 16 {
		t.Fatal("recycled stripe has wrong geometry")
	}
}

func TestPoolPutWrongGeometryPanics(t *testing.T) {
	p := NewPool(3, 5, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on putting a foreign stripe")
		}
	}()
	p.Put(New(3, 5, 32))
}
