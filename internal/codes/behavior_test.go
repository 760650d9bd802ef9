package codes

import (
	"math/rand"
	"testing"

	"dcode/internal/erasure"
)

// Cross-code behavioural sweep: every registered code must satisfy the
// engine-level contracts, whatever its construction.

func TestSweepEncodeVerify(t *testing.T) {
	for _, e := range All() {
		c, err := e.New(7)
		if err != nil {
			t.Fatal(err)
		}
		s := c.NewStripe(32)
		s.Fill(7)
		c.Encode(s)
		if !c.Verify(s) {
			t.Errorf("%s: fresh encode fails Verify", e.ID)
		}
		// Corrupting any single data element must break Verify.
		co := c.DataCoord(c.DataElems() / 2)
		s.Elem(co.Row, co.Col)[0] ^= 1
		if c.Verify(s) {
			t.Errorf("%s: Verify missed a corrupted data element", e.ID)
		}
	}
}

func TestSweepUpdateDataKeepsConsistency(t *testing.T) {
	for _, e := range All() {
		c, err := e.New(7)
		if err != nil {
			t.Fatal(err)
		}
		s := c.NewStripe(16)
		s.Fill(11)
		c.Encode(s)
		rng := rand.New(rand.NewSource(3))
		val := make([]byte, 16)
		for i := 0; i < 25; i++ {
			co := c.DataCoord(rng.Intn(c.DataElems()))
			rng.Read(val)
			c.UpdateData(s, co.Row, co.Col, val)
			if !c.Verify(s) {
				t.Fatalf("%s: UpdateData left the stripe inconsistent at step %d", e.ID, i)
			}
		}
	}
}

// Codes whose groups touch each column at most once must decode every
// double erasure by pure peeling (the Fig. 3 chains); the S-coupled and
// packet-based codes may stall and fall back to Gaussian elimination.
func TestSweepPeelingCoverage(t *testing.T) {
	peelers := map[string]bool{"rdp": true, "hcode": true, "hdp": true, "xcode": true, "dcode": true, "pcode": true}
	for _, e := range All() {
		c, err := e.New(7)
		if err != nil {
			t.Fatal(err)
		}
		_, stalled := c.DecodeXORPerLost()
		if peelers[e.ID] && stalled != 0 {
			t.Errorf("%s: %d column pairs stalled peeling, want 0", e.ID, stalled)
		}
	}
}

// The degraded-read planner must work for every code and failed column, and
// its fetch set must actually suffice to recover the lost cells.
func TestSweepDegradedPlans(t *testing.T) {
	for _, e := range All() {
		c, err := e.New(7)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < c.Cols(); f++ {
			// Want the first up-to-8 data elements.
			n := 8
			if n > c.DataElems() {
				n = c.DataElems()
			}
			wanted := make([]erasure.Coord, 0, n)
			for i := 0; i < n; i++ {
				wanted = append(wanted, c.DataCoord(i))
			}
			plan, err := c.PlanDegraded(f, wanted, nil)
			if err != nil {
				t.Fatalf("%s col %d: %v", e.ID, f, err)
			}
			for _, co := range plan.Fetch {
				if co.Col == f {
					t.Fatalf("%s col %d: plan fetches from the failed disk", e.ID, f)
				}
			}
			// Execute the plan on real data.
			s := c.NewStripe(8)
			s.Fill(uint64(f))
			c.Encode(s)
			want := s.Clone()
			have := map[erasure.Coord][]byte{}
			for _, co := range plan.Fetch {
				have[co] = s.Elem(co.Row, co.Col)
			}
			for _, step := range plan.Steps {
				g := c.Groups()[step.Group]
				dst := make([]byte, 8)
				cells := append(append([]erasure.Coord{}, g.Members...), g.Parity)
				for _, cell := range cells {
					if cell == step.Target {
						continue
					}
					src, ok := have[cell]
					if !ok {
						t.Fatalf("%s col %d: step needs unfetched cell %v", e.ID, f, cell)
					}
					for i := range dst {
						dst[i] ^= src[i]
					}
				}
				wantElem := want.Elem(step.Target.Row, step.Target.Col)
				for i := range dst {
					if dst[i] != wantElem[i] {
						t.Fatalf("%s col %d: plan recovered %v wrong", e.ID, f, step.Target)
					}
				}
				have[step.Target] = dst
			}
		}
	}
}

// Metrics sanity across the registry: storage efficiency in (0,1), positive
// encode cost, and every data element covered by at least two equations
// (two-fault tolerance requires it).
func TestSweepMetricsSanity(t *testing.T) {
	for _, e := range All() {
		c, err := e.New(11)
		if err != nil {
			t.Fatal(err)
		}
		m := c.ComputeMetrics()
		if m.StorageEfficiency <= 0 || m.StorageEfficiency >= 1 {
			t.Errorf("%s: storage efficiency %v", e.ID, m.StorageEfficiency)
		}
		if m.EncodeXORPerData <= 0 {
			t.Errorf("%s: encode cost %v", e.ID, m.EncodeXORPerData)
		}
		// Every data element's update closure must touch at least two parity
		// cells — RAID-6 needs two independent ways to reach each element.
		// (Direct membership can be 1: RDP's missing-diagonal cells reach
		// the diagonal parity through the row parity.)
		for i := 0; i < c.DataElems(); i++ {
			co := c.DataCoord(i)
			if len(c.UpdateGroups(co.Row, co.Col)) < 2 {
				t.Fatalf("%s: data cell %v updates fewer than 2 parities", e.ID, co)
			}
		}
	}
}
