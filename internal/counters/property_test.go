package counters

import (
	"math"
	"testing"
	"testing/quick"
)

// TestExtrapolatorProperty feeds the extrapolator observations from a
// random but ratio-constant workload under random group subsets and checks
// the projection reproduces the ratios.
func TestExtrapolatorProperty(t *testing.T) {
	check := func(ratiosRaw [NumIDs]uint16, insPerObs uint32, picks [8]uint8) bool {
		ins := int64(insPerObs%1_000_000) + 1000
		var ratios [NumIDs]float64
		for i := range ratios {
			ratios[i] = float64(ratiosRaw[i]%1000) / 1000 // counts per instruction
		}
		groups := DefaultGroups()
		var ex Extrapolator
		for _, p := range picks {
			g := groups[int(p)%len(groups)]
			var full Set
			full.Put(Instructions, ins)
			full.Put(Cycles, 2*ins)
			for id := ID(0); id < NumIDs; id++ {
				if id == Instructions || id == Cycles {
					continue
				}
				full.Put(id, int64(ratios[id]*float64(ins)))
			}
			ex.Observe(full.MaskedTo(g.IDs))
		}
		proj := ex.Project(10 * ins)
		for id := ID(0); id < NumIDs; id++ {
			got, ok := proj.Get(id)
			if !ok {
				continue // group never selected for this counter
			}
			var want int64
			switch id {
			case Instructions:
				want = 10 * ins
			case Cycles:
				want = 20 * ins
			default:
				want = int64(ratios[id] * float64(ins) * 10)
			}
			// Integer truncation both in the observation and projection.
			if math.Abs(float64(got-want)) > 11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMaskRoundtripProperty: masking to a group then re-masking to a subset
// equals masking to the subset directly.
func TestMaskRoundtripProperty(t *testing.T) {
	check := func(vals [NumIDs]int32, pick uint8) bool {
		var s Set
		for i := ID(0); i < NumIDs; i++ {
			s.Put(i, int64(vals[i]))
		}
		groups := DefaultGroups()
		g := groups[int(pick)%len(groups)]
		sub := g.IDs[:2]
		a := s.MaskedTo(g.IDs).MaskedTo(sub)
		b := s.MaskedTo(sub)
		return a == b
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
