package faults

import (
	"fmt"
	"math/rand"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// DropSamples removes each sample independently with probability Rate —
// the signature of an overloaded sampling backend or a lossy transport.
// Events are kept: instrumentation probes are synchronous and do not drop.
type DropSamples struct{ Rate float64 }

func (f DropSamples) Name() string   { return "drop" }
func (f DropSamples) String() string { return fmt.Sprintf("drop=%g", f.Rate) }

func (f DropSamples) Apply(rng *rand.Rand, tr *trace.Trace) {
	for _, rd := range tr.Ranks {
		kept := rd.Samples[:0]
		for _, s := range rd.Samples {
			if rng.Float64() < f.Rate {
				continue
			}
			kept = append(kept, s)
		}
		rd.Samples = kept
	}
}

// KillRanks erases the complete record streams of each rank independently
// with probability Rate — a crashed process or a lost per-rank trace file.
// At least one rank always survives, so the result stays analyzable enough
// to report the damage.
type KillRanks struct{ Rate float64 }

func (f KillRanks) Name() string   { return "killrank" }
func (f KillRanks) String() string { return fmt.Sprintf("killrank=%g", f.Rate) }

func (f KillRanks) Apply(rng *rand.Rand, tr *trace.Trace) {
	alive := len(tr.Ranks)
	for _, rd := range tr.Ranks {
		if alive <= 1 {
			return
		}
		if rng.Float64() < f.Rate {
			rd.Events = nil
			rd.Samples = nil
			alive--
		}
	}
}

// TruncateRanks cuts the tail of every rank's streams at a uniformly random
// point in the last MaxFrac of its timeline — the per-rank flush that never
// completed. A rank may lose anywhere from nothing up to MaxFrac of its
// records, so ranks end at different times, as real partial flushes do.
type TruncateRanks struct{ MaxFrac float64 }

func (f TruncateRanks) Name() string   { return "truncate" }
func (f TruncateRanks) String() string { return fmt.Sprintf("truncate=%g", f.MaxFrac) }

func (f TruncateRanks) Apply(rng *rand.Rand, tr *trace.Trace) {
	end := tr.EndTime()
	if end <= 0 {
		return
	}
	for _, rd := range tr.Ranks {
		cut := sim.Time(float64(end) * (1 - rng.Float64()*f.MaxFrac))
		ke := rd.Events[:0]
		for _, e := range rd.Events {
			if e.Time > cut {
				break
			}
			ke = append(ke, e)
		}
		rd.Events = ke
		ks := rd.Samples[:0]
		for _, s := range rd.Samples {
			if s.Time > cut {
				break
			}
			ks = append(ks, s)
		}
		rd.Samples = ks
	}
}

// SkewClocks shifts every rank's clock by an independent uniform offset in
// [0, Max] — unsynchronized node clocks. Within a rank, relative order and
// durations are preserved; across ranks, alignment is broken.
type SkewClocks struct{ Max sim.Duration }

func (f SkewClocks) Name() string   { return "skew" }
func (f SkewClocks) String() string { return fmt.Sprintf("skew=%s", f.Max) }

func (f SkewClocks) Apply(rng *rand.Rand, tr *trace.Trace) {
	for _, rd := range tr.Ranks {
		off := sim.Time(rng.Int63n(int64(f.Max) + 1))
		for i := range rd.Events {
			rd.Events[i].Time += off
		}
		for i := range rd.Samples {
			rd.Samples[i].Time += off
		}
	}
}

// WrapCounters reduces every cumulative counter value modulo 2^Bits — the
// register width of a PMU that wrapped during the run. Narrow widths wrap
// early and often; the analysis sees values that jump backwards.
type WrapCounters struct{ Bits uint }

func (f WrapCounters) Name() string   { return "wrap" }
func (f WrapCounters) String() string { return fmt.Sprintf("wrap=%d", f.Bits) }

func (f WrapCounters) Apply(rng *rand.Rand, tr *trace.Trace) {
	mod := int64(1) << f.Bits
	wrapSet := func(s *counters.Set) {
		for c := counters.ID(0); c < counters.NumIDs; c++ {
			if v, ok := s.Get(c); ok && v >= mod {
				s.Put(c, v%mod)
			}
		}
	}
	for _, rd := range tr.Ranks {
		for i := range rd.Events {
			wrapSet(&rd.Events[i].Counters)
		}
		for i := range rd.Samples {
			wrapSet(&rd.Samples[i].Counters)
		}
	}
}

// DuplicateRecords inserts an exact copy immediately after each record with
// probability Rate — the retransmission a flaky transport produces.
type DuplicateRecords struct{ Rate float64 }

func (f DuplicateRecords) Name() string   { return "dup" }
func (f DuplicateRecords) String() string { return fmt.Sprintf("dup=%g", f.Rate) }

func (f DuplicateRecords) Apply(rng *rand.Rand, tr *trace.Trace) {
	for _, rd := range tr.Ranks {
		var ev []trace.Event
		for _, e := range rd.Events {
			ev = append(ev, e)
			if rng.Float64() < f.Rate {
				ev = append(ev, e)
			}
		}
		rd.Events = ev
		var sm []trace.Sample
		for _, s := range rd.Samples {
			sm = append(sm, s)
			if rng.Float64() < f.Rate {
				sm = append(sm, s)
			}
		}
		rd.Samples = sm
	}
}

// ReorderRecords swaps the payloads of adjacent records with probability
// Rate while keeping the timestamps in place — records written to the
// buffer in the wrong slots. Timestamps stay sorted; the content at each
// instant is wrong.
type ReorderRecords struct{ Rate float64 }

func (f ReorderRecords) Name() string   { return "reorder" }
func (f ReorderRecords) String() string { return fmt.Sprintf("reorder=%g", f.Rate) }

func (f ReorderRecords) Apply(rng *rand.Rand, tr *trace.Trace) {
	for _, rd := range tr.Ranks {
		for i := 0; i+1 < len(rd.Events); i += 2 {
			if rng.Float64() < f.Rate {
				a, b := &rd.Events[i], &rd.Events[i+1]
				*a, *b = *b, *a
				a.Time, b.Time = b.Time, a.Time
			}
		}
		for i := 0; i+1 < len(rd.Samples); i += 2 {
			if rng.Float64() < f.Rate {
				a, b := &rd.Samples[i], &rd.Samples[i+1]
				*a, *b = *b, *a
				a.Time, b.Time = b.Time, a.Time
			}
		}
	}
}

// ZeroCounters zeroes every captured counter of a record with probability
// Rate — the uninitialized read a racing PMU driver returns.
type ZeroCounters struct{ Rate float64 }

func (f ZeroCounters) Name() string   { return "zero" }
func (f ZeroCounters) String() string { return fmt.Sprintf("zero=%g", f.Rate) }

func (f ZeroCounters) Apply(rng *rand.Rand, tr *trace.Trace) {
	zero := func(s *counters.Set) {
		for c := counters.ID(0); c < counters.NumIDs; c++ {
			if _, ok := s.Get(c); ok {
				s.Put(c, 0)
			}
		}
	}
	for _, rd := range tr.Ranks {
		for i := range rd.Events {
			if rng.Float64() < f.Rate {
				zero(&rd.Events[i].Counters)
			}
		}
		for i := range rd.Samples {
			if rng.Float64() < f.Rate {
				zero(&rd.Samples[i].Counters)
			}
		}
	}
}

// GarbleCounters replaces every captured counter of a record with random
// garbage (including negative values) with probability Rate — bit rot in
// the record buffer. This is the integer-counter analogue of NaN damage.
type GarbleCounters struct{ Rate float64 }

func (f GarbleCounters) Name() string   { return "garble" }
func (f GarbleCounters) String() string { return fmt.Sprintf("garble=%g", f.Rate) }

func (f GarbleCounters) Apply(rng *rand.Rand, tr *trace.Trace) {
	garble := func(s *counters.Set) {
		for c := counters.ID(0); c < counters.NumIDs; c++ {
			if _, ok := s.Get(c); ok {
				s.Put(c, rng.Int63()-rng.Int63())
			}
		}
	}
	for _, rd := range tr.Ranks {
		for i := range rd.Events {
			if rng.Float64() < f.Rate {
				garble(&rd.Events[i].Counters)
			}
		}
		for i := range rd.Samples {
			if rng.Float64() < f.Rate {
				garble(&rd.Samples[i].Counters)
			}
		}
	}
}

// ChopStream truncates the encoded byte stream, removing a uniform random
// fraction of its tail in (0, Frac] — the interrupted file write.
type ChopStream struct{ Frac float64 }

func (f ChopStream) Name() string   { return "chop" }
func (f ChopStream) String() string { return fmt.Sprintf("chop=%g", f.Frac) }

func (f ChopStream) ApplyStream(rng *rand.Rand, data []byte) []byte {
	if len(data) == 0 || f.Frac <= 0 {
		return data
	}
	remove := int(float64(len(data)) * rng.Float64() * f.Frac)
	if remove < 1 {
		remove = 1
	}
	if remove >= len(data) {
		remove = len(data) - 1
	}
	return append([]byte(nil), data[:len(data)-remove]...)
}

// CorruptStream flips one random bit in each byte independently with
// probability Rate — media-level corruption of the stored trace.
type CorruptStream struct{ Rate float64 }

func (f CorruptStream) Name() string   { return "corrupt" }
func (f CorruptStream) String() string { return fmt.Sprintf("corrupt=%g", f.Rate) }

func (f CorruptStream) ApplyStream(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	for i := range out {
		if rng.Float64() < f.Rate {
			out[i] ^= 1 << uint(rng.Intn(8))
		}
	}
	return out
}
