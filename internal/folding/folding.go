// Package folding implements the paper's central mechanism: projecting the
// sparse samples collected across many instances of a repeated computation
// region onto the normalized time of a single synthetic instance. Each
// instance contributes only a few samples, but because the sampling grid is
// uncorrelated with the region period, the projections land at different
// offsets, and a few hundred instances produce a dense cloud describing the
// counter evolution inside the region at a granularity far below the
// sampling period.
//
// For a sample taken at absolute time t inside a burst [s, e) whose counter
// c advanced from c(s) to c(e):
//
//	x = (t - s) / (e - s)                 normalized time in [0, 1)
//	y = (c(t) - c(s)) / (c(e) - c(s))     normalized cumulative progress
//
// The folded cloud (x, y) approximates the region's normalized cumulative
// counter function; its derivative is the instantaneous rate profile the
// piece-wise linear regression recovers.
package folding

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// foldScratch is the per-call working set of Fold — the member list and
// the used members' streamed spans, the duration vector and one delta
// vector per counter id (the medians select in place in them), the sort
// keys and bucket offsets, and the cloud sizes.
// The analysis pipeline folds many clusters concurrently, so the scratch is
// pooled: a steady-state Fold allocates only the Folded result it returns
// and its clouds. The relaxed-band retry inside Fold recurses, which is
// safe — the inner call simply draws a second scratch from the pool.
type foldScratch struct {
	members []*trace.Burst
	spans   []*cloudSpan // per used member: what the projector's size found
	durs    []float64
	deltas  [counters.NumIDs][]float64
	keys    []xKey
	offsets []int32   // the bucket sort's offsets
	size    cloudSize // kept here: passed to a Projector, a local would escape
}

var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

func putScratch(sc *foldScratch) {
	sc.members = sc.members[:0]
	clear(sc.spans)
	sc.spans = sc.spans[:0]
	sc.durs = sc.durs[:0]
	for i := range sc.deltas {
		sc.deltas[i] = sc.deltas[i][:0]
	}
	scratchPool.Put(sc)
}

// Point is one folded observation for one counter.
type Point struct {
	// X is normalized time in [0, 1].
	X float64
	// Y is normalized cumulative counter progress, clamped to [0, 1].
	Y float64
}

// StackSample is one folded call-stack observation.
type StackSample struct {
	X     float64
	Stack callstack.StackID
}

// Options controls the folding.
type Options struct {
	// DurationBand prunes outlier bursts: members whose duration deviates
	// from the cluster median by more than this fraction are skipped, so a
	// mis-clustered or perturbed instance does not smear the cloud. Zero
	// disables pruning.
	DurationBand float64
	// MinBurstSamples skips bursts with fewer samples than this. Zero
	// keeps even sample-less bursts (they still contribute to the
	// representative duration and counter totals).
	MinBurstSamples int
}

// DefaultOptions returns the pruning configuration used by the experiments:
// a ±15% duration band, matching the folding literature's practice of
// folding only instances close to the cluster representative.
func DefaultOptions() Options {
	return Options{DurationBand: 0.15}
}

// Folded is the result of folding one cluster.
type Folded struct {
	// Cluster is the cluster label folded.
	Cluster int
	// NumBursts and UsedBursts count the cluster members and the members
	// that survived outlier pruning.
	NumBursts, UsedBursts int
	// RepDuration is the representative (median) burst duration; slopes in
	// normalized time convert to rates via TotalDelta and RepDuration.
	RepDuration sim.Duration
	// TotalDelta is the per-counter median delta across used bursts;
	// counters never captured are missing.
	TotalDelta counters.Set
	// Points is the folded cloud per counter, sorted stably by X: ties
	// keep their projection order.
	Points [counters.NumIDs][]Point
	// Stacks is the folded call-stack timeline, sorted stably by X.
	Stacks []StackSample
}

// NumPoints returns the folded cloud size for counter id.
func (f *Folded) NumPoints(id counters.ID) int {
	if !id.Valid() {
		return 0
	}
	return len(f.Points[id])
}

// TotalPoints returns the folded observation count summed over all
// counters — the cloud-size figure the telemetry layer records per fold.
func (f *Folded) TotalPoints() int {
	n := 0
	for id := range f.Points {
		n += len(f.Points[id])
	}
	return n
}

// RateScale returns the factor converting a normalized slope (dy/dx of the
// folded cloud) into an absolute rate in counts/second for counter id:
// rate = slope * total / duration. ok is false when the counter was never
// captured or the representative duration is zero.
func (f *Folded) RateScale(id counters.ID) (float64, bool) {
	total, ok := f.TotalDelta.Get(id)
	if !ok || f.RepDuration <= 0 {
		return 0, false
	}
	return float64(total) / f.RepDuration.Seconds(), true
}

// Projector is the source of a fold's per-sample projections. It is the
// seam between the folding algebra — median durations, outlier pruning,
// delta medians, the final sort — and where the projections come from: the
// batch path projects lazily out of a resident trace (TraceProjector), the
// streaming path replays clouds built eagerly as samples arrived
// (CloudProjector). Both append identical values in identical order, and
// the final sort is stable by X, so the two paths stay byte-identical. That
// sort orders the longest cloud's X sequence once and applies the
// permutation to every cloud sharing it (see sortClouds): under a native PMU
// all counters and the stack timeline take one sort.
type Projector interface {
	// size adds to n the points burst b projects into each counter's cloud
	// and the samples it adds to the stack timeline. It returns b's span
	// of streamed rows (nil for the resident source, or a burst without
	// rows), which the fold hands back to project: a burst is looked up
	// once per fold.
	size(n *cloudSize, b *trace.Burst) *cloudSpan
	// project appends b's projections to f's clouds and stack timeline:
	// exactly what size counted.
	project(f *Folded, b *trace.Burst, sp *cloudSpan)
}

// cloudSize counts the points of each counter's cloud and the samples of the
// stack timeline a fold will hold, so each is allocated once at its size,
// and the projected samples (rows) they come from. Each streamed span
// keeps one too, so its fields are int32: a cloud of 2³¹ points would not
// fit in memory anyway.
type cloudSize struct {
	points [counters.NumIDs]int32
	stacks int32
	rows   int32
}

// add counts one projected sample: a point for each counter in mask, and a
// stack sample unless stack is NoStack.
func (n *cloudSize) add(mask uint16, stack callstack.StackID) {
	if mask == 0 && stack == callstack.NoStack {
		return
	}
	n.rows++
	for ; mask != 0; mask &= mask - 1 {
		n.points[bits.TrailingZeros16(mask)]++
	}
	if stack != callstack.NoStack {
		n.stacks++
	}
}

// alloc gives f's clouds and stack timeline the capacity n counted, with
// every counter cloud cut from one slab. A counter with no points keeps a
// nil cloud.
func (f *Folded) alloc(n *cloudSize) {
	total := 0
	for _, c := range n.points {
		total += int(c)
	}
	slab := make([]Point, total)
	for id, c := range n.points {
		if c > 0 {
			f.Points[id], slab = slab[:0:c], slab[c:]
		}
	}
	if n.stacks > 0 {
		f.Stacks = make([]StackSample, 0, n.stacks)
	}
}

// TraceProjector projects burst samples directly out of the resident trace —
// the batch path.
func TraceProjector(tr *trace.Trace) Projector {
	return traceProjector{tr}
}

// Fold projects the samples of all bursts labelled label onto the synthetic
// burst. bursts must carry cluster labels and sample links (ExtractBursts
// output after clustering).
func Fold(tr *trace.Trace, bursts []trace.Burst, label int, opt Options) (*Folded, error) {
	return FoldWith(TraceProjector(tr), bursts, label, opt)
}

// FoldWith is Fold with an explicit projection source; see Projector.
func FoldWith(project Projector, bursts []trace.Burst, label int, opt Options) (*Folded, error) {
	if label < 0 {
		return nil, fmt.Errorf("folding: cannot fold noise label %d", label)
	}
	sc := scratchPool.Get().(*foldScratch)
	defer putScratch(sc)
	members := sc.members[:0]
	for i := range bursts {
		if bursts[i].Cluster == label {
			members = append(members, &bursts[i])
		}
	}
	sc.members = members
	if len(members) == 0 {
		return nil, fmt.Errorf("folding: cluster %d has no bursts", label)
	}
	f := &Folded{Cluster: label, NumBursts: len(members)}

	// Representative duration and outlier band from the full membership.
	durs := sc.durs[:0]
	for _, b := range members {
		durs = append(durs, float64(b.Duration()))
	}
	sc.durs = durs
	medDur := sim.QuantileInPlace(durs, 0.5)
	f.RepDuration = sim.Duration(medDur)

	// Keep the used bursts, in member order, and collect their per-counter
	// deltas for the medians.
	used := members[:0]
	deltas := &sc.deltas
	for _, b := range members {
		if opt.DurationBand > 0 {
			dev := (float64(b.Duration()) - medDur) / medDur
			if dev > opt.DurationBand || dev < -opt.DurationBand {
				continue
			}
		}
		if opt.MinBurstSamples > 0 && b.NumSmp < opt.MinBurstSamples {
			continue
		}
		used = append(used, b)
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			if v, ok := b.Delta.Get(id); ok {
				deltas[id] = append(deltas[id], float64(v))
			}
		}
	}
	f.UsedBursts = len(used)
	if f.UsedBursts == 0 && opt.DurationBand > 0 {
		// A bimodal cluster (structure detection merged two behaviours) can
		// place the median duration in an empty gap, pruning every member.
		// Folding the mixed population is still more useful than failing,
		// so retry without the band.
		relaxed := opt
		relaxed.DurationBand = 0
		return FoldWith(project, bursts, label, relaxed)
	}
	if f.UsedBursts == 0 {
		return nil, fmt.Errorf("folding: cluster %d: all %d bursts pruned", label, f.NumBursts)
	}
	f.TotalDelta = counters.AllMissing()
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if len(deltas[id]) > 0 {
			f.TotalDelta.Put(id, int64(sim.QuantileInPlace(deltas[id], 0.5)))
		}
	}

	// Size every cloud, allocate each once, then project.
	n := &sc.size
	*n = cloudSize{}
	spans := sc.spans[:0]
	for _, b := range used {
		spans = append(spans, project.size(n, b))
	}
	sc.spans = spans
	f.alloc(n)
	for i, b := range used {
		project.project(f, b, spans[i])
	}
	sortClouds(f, sc)
	return f, nil
}

// xKey is one element of a cloud during a sort: its X and its position
// before the sort.
type xKey struct {
	x float64
	i int
}

// cmpKey is the fold's one order: by X, then by position before the sort.
// It is total, so the sorted order is the stable sort by X whatever
// algorithm produces it.
func cmpKey(a, b xKey) int {
	if c := cmp.Compare(a.x, b.x); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// bucketSortMax is the largest bucket sorted by insertion; a larger one
// (many equal or nearly equal X) takes slices.SortFunc, so no input is
// quadratic.
const bucketSortMax = 32

// buckets is a counting sort of one cloud's keys by X over about n/2
// equal-width buckets of [0, 1]. The bucket index is monotone in X, so every
// key of a bucket orders before every key of the next; X outside [0, 1]
// lands in the first or last bucket, and NaN in the first, where cmp.Compare
// orders it before every number. A cloud is counted (count), the keys are
// placed in cloud order (place), which keeps each bucket in index order,
// and each bucket is then sorted on its own (sort). On the clouds a fold
// makes, buckets hold two keys on average, so the sort is linear.
type buckets struct {
	fnb float64
	at  []int32 // counts, then each bucket's next free slot; at[nb] == n
}

// buckets returns the bucket sort of n keys, its offsets in sc.
func (sc *foldScratch) buckets(n int) buckets {
	nb := max(1, n/2)
	sc.offsets = slices.Grow(sc.offsets[:0], nb+1)[:nb+1]
	clear(sc.offsets)
	return buckets{fnb: float64(nb), at: sc.offsets}
}

func (bk buckets) of(x float64) int {
	f := x * bk.fnb
	switch {
	case !(f >= 0):
		return 0
	case f >= bk.fnb:
		return len(bk.at) - 2
	}
	return int(f)
}

func (bk buckets) count(x float64) { bk.at[bk.of(x)+1]++ }

// keys turns the counts into bucket starts and returns sc's key buffer,
// sized for the counted keys.
func (bk buckets) keys(sc *foldScratch) []xKey {
	for b := 1; b < len(bk.at); b++ {
		bk.at[b] += bk.at[b-1]
	}
	n := int(bk.at[len(bk.at)-1])
	sc.keys = slices.Grow(sc.keys[:0], n)[:n]
	return sc.keys
}

func (bk buckets) place(keys []xKey, k xKey) {
	b := bk.of(k.x)
	keys[bk.at[b]] = k
	bk.at[b]++
}

// sort sorts each bucket of the placed keys by cmpKey: by insertion when it
// is small, and by slices.SortFunc above bucketSortMax.
func (bk buckets) sort(keys []xKey) {
	lo := int32(0)
	for _, hi := range bk.at[:len(bk.at)-1] {
		s := keys[lo:hi]
		lo = hi
		if len(s) > bucketSortMax {
			slices.SortFunc(s, cmpKey)
			continue
		}
		for i := 1; i < len(s); i++ {
			k := s[i]
			j := i
			for ; j > 0 && cmpKey(k, s[j-1]) < 0; j-- {
				s[j] = s[j-1]
			}
			s[j] = k
		}
	}
}

// sortClouds sorts every counter cloud and the stack timeline of f stably by
// X. Most clouds of a cluster share one pre-sort X sequence (every sample
// projects into every captured counter and the stack timeline), and a stable
// sort permutes equal X sequences identically. So the longest cloud's keys
// are sorted once, and the resulting permutation is applied in place to
// every cloud whose X sequence equals it position by position. A cloud with
// a different sequence — a multiplexed counter, or one skipped in some
// bursts — is sorted on its own, by the same primitive.
//
// A cloud holding one point per projected sample (sc.size.rows, zero when
// unknown) has the projection's X sequence, so when the longest cloud is
// one, every cloud of its length shares its sequence without comparing.
func sortClouds(f *Folded, sc *foldScratch) {
	ref := 0
	for id := range f.Points {
		if len(f.Points[id]) > len(f.Points[ref]) {
			ref = id
		}
	}
	refPts := f.Points[ref]
	allRows := len(refPts) == int(sc.size.rows)
	var shared [counters.NumIDs][]Point
	n := 0
	for _, pts := range f.Points {
		if len(pts) == len(refPts) && (allRows || sameX(pts, refPts)) {
			shared[n] = pts
			n++
		} else {
			permute(sc.pointKeys(pts), [][]Point{pts}, nil)
		}
	}
	var stacks []StackSample
	if len(f.Stacks) == len(refPts) && (allRows || sameStackX(f.Stacks, refPts)) {
		stacks = f.Stacks
	} else {
		permute(sc.stackKeys(f.Stacks), nil, f.Stacks)
	}
	permute(sc.pointKeys(refPts), shared[:n], stacks)
}

// pointKeys returns pts' keys, sorted by cmpKey, in sc's key buffer.
func (sc *foldScratch) pointKeys(pts []Point) []xKey {
	bk := sc.buckets(len(pts))
	for _, p := range pts {
		bk.count(p.X)
	}
	keys := bk.keys(sc)
	for i, p := range pts {
		bk.place(keys, xKey{x: p.X, i: i})
	}
	bk.sort(keys)
	return keys
}

// stackKeys is pointKeys for a stack timeline.
func (sc *foldScratch) stackKeys(stacks []StackSample) []xKey {
	bk := sc.buckets(len(stacks))
	for _, s := range stacks {
		bk.count(s.X)
	}
	keys := bk.keys(sc)
	for i, s := range stacks {
		bk.place(keys, xKey{x: s.X, i: i})
	}
	bk.sort(keys)
	return keys
}

// permute rearranges clouds (and stacks, when non-nil) in place so that
// position k holds the element that was at keys[k].i, walking each cycle of
// the permutation once and moving every cloud along it. keys is consumed:
// visited entries are marked with a negative index.
func permute(keys []xKey, clouds [][]Point, stacks []StackSample) {
	var tmp [counters.NumIDs]Point
	var tmpStack StackSample
	for s := range keys {
		if src := keys[s].i; src == s || src < 0 {
			continue
		}
		for c, pts := range clouds {
			tmp[c] = pts[s]
		}
		if stacks != nil {
			tmpStack = stacks[s]
		}
		j := s
		for {
			src := keys[j].i
			keys[j].i = -1
			if src == s {
				for c, pts := range clouds {
					pts[j] = tmp[c]
				}
				if stacks != nil {
					stacks[j] = tmpStack
				}
				break
			}
			for _, pts := range clouds {
				pts[j] = pts[src]
			}
			if stacks != nil {
				stacks[j] = stacks[src]
			}
			j = src
		}
	}
}

// sameX reports whether a and b hold equal X values position by position.
func sameX(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X {
			return false
		}
	}
	return true
}

// sameStackX is sameX between a stack timeline and a counter cloud.
func sameStackX(a []StackSample, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X {
			return false
		}
	}
	return true
}

// normalizable returns the mask of the counters b's samples can be
// normalized by: captured at its start, with a positive delta.
func normalizable(b *trace.Burst) uint16 {
	mask := b.StartCtr.Captured() & b.Delta.Captured()
	for m := mask; m != 0; m &= m - 1 {
		id := counters.ID(bits.TrailingZeros16(m))
		if total, _ := b.Delta.Get(id); total <= 0 {
			mask &^= 1 << id
		}
	}
	return mask
}

type traceProjector struct{ tr *trace.Trace }

// samples returns b's linked samples, its duration and its normalizable
// counters; no samples when b projects nothing.
func (p traceProjector) samples(b *trace.Burst) ([]trace.Sample, float64, uint16) {
	dur := float64(b.Duration())
	if b.FirstSmp < 0 || b.NumSmp == 0 || dur <= 0 {
		return nil, 0, 0
	}
	return p.tr.Rank(int(b.Rank)).Samples[b.FirstSmp : b.FirstSmp+b.NumSmp], dur, normalizable(b)
}

func (p traceProjector) size(n *cloudSize, b *trace.Burst) *cloudSpan {
	samples, dur, mask := p.samples(b)
	for i := range samples {
		s := &samples[i]
		if x := float64(s.Time-b.Start) / dur; x < 0 || x > 1 {
			continue
		}
		n.add(s.Counters.Captured()&mask, s.Stack)
	}
	return nil
}

func (p traceProjector) project(f *Folded, b *trace.Burst, _ *cloudSpan) {
	samples, dur, mask := p.samples(b)
	for i := range samples {
		s := &samples[i]
		x := float64(s.Time-b.Start) / dur
		if x < 0 || x > 1 {
			continue
		}
		for m := s.Counters.Captured() & mask; m != 0; m &= m - 1 {
			id := counters.ID(bits.TrailingZeros16(m))
			sv, _ := s.Counters.Get(id)
			base, _ := b.StartCtr.Get(id)
			total, _ := b.Delta.Get(id)
			y := sim.Clamp(float64(sv-base)/float64(total), 0, 1)
			f.Points[id] = append(f.Points[id], Point{X: x, Y: y})
		}
		if s.Stack != callstack.NoStack {
			f.Stacks = append(f.Stacks, StackSample{X: x, Stack: s.Stack})
		}
	}
}
