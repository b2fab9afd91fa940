package cluster

import (
	"context"
	"fmt"
	"math"

	"phasefold/internal/counters"
	"phasefold/internal/trace"
)

// Feature identifies one burst feature used for structure detection. The
// default pair (log completed instructions, IPC) is the combination the
// IPDPS 2009 structure-detection work found most discriminative: work volume
// separates big regions from small ones, IPC separates behaviourally
// different regions of similar size.
type Feature uint8

// The available burst features.
const (
	FeatLogInstructions Feature = iota // log10 of committed instructions
	FeatLogDuration                    // log10 of duration in ns
	FeatIPC                            // instructions per cycle
	FeatL1PerKI                        // L1D misses per kilo-instruction
	FeatMemRatio                       // loads+stores per instruction
	numFeatures
)

var featureNames = [numFeatures]string{
	FeatLogInstructions: "log_instructions",
	FeatLogDuration:     "log_duration",
	FeatIPC:             "IPC",
	FeatL1PerKI:         "L1_per_kinstr",
	FeatMemRatio:        "mem_ratio",
}

// String returns the feature name used in reports.
func (f Feature) String() string {
	if f < numFeatures {
		return featureNames[f]
	}
	return fmt.Sprintf("feature(%d)", uint8(f))
}

// DefaultFeatures is the standard feature pair for structure detection.
func DefaultFeatures() []Feature {
	return []Feature{FeatLogInstructions, FeatIPC}
}

// MinSpan returns the smallest feature range treated as meaningful during
// normalization. Without a floor, a burst population with a single true
// behaviour would have its measurement noise stretched to the full [0,1]
// normalized range, and DBSCAN would shatter the cluster. One decade of
// work, one unit of IPC, etc. are the scales at which differences become
// structurally meaningful.
func (f Feature) MinSpan() float64 {
	switch f {
	case FeatLogInstructions, FeatLogDuration:
		return 1.0 // one decade
	case FeatIPC:
		return 1.0
	case FeatL1PerKI:
		return 20.0
	case FeatMemRatio:
		return 0.25
	}
	return 1.0
}

// featureOf evaluates one feature on a burst; ok is false when a required
// counter was not captured in the burst's multiplex group.
func featureOf(b *trace.Burst, f Feature) (float64, bool) {
	ins, insOK := b.Delta.Get(counters.Instructions)
	switch f {
	case FeatLogInstructions:
		if !insOK || ins <= 0 {
			return 0, false
		}
		return math.Log10(float64(ins)), true
	case FeatLogDuration:
		d := b.Duration()
		if d <= 0 {
			return 0, false
		}
		return math.Log10(float64(d)), true
	case FeatIPC:
		cyc, ok := b.Delta.Get(counters.Cycles)
		if !insOK || !ok || cyc <= 0 {
			return 0, false
		}
		return float64(ins) / float64(cyc), true
	case FeatL1PerKI:
		l1, ok := b.Delta.Get(counters.L1DMisses)
		if !insOK || !ok || ins <= 0 {
			return 0, false
		}
		return 1000 * float64(l1) / float64(ins), true
	case FeatMemRatio:
		ld, ok1 := b.Delta.Get(counters.Loads)
		st, ok2 := b.Delta.Get(counters.Stores)
		if !insOK || !ok1 || !ok2 || ins <= 0 {
			return 0, false
		}
		return (float64(ld) + float64(st)) / float64(ins), true
	}
	return 0, false
}

// Extract computes the feature matrix of bursts. Bursts lacking a required
// counter yield ok=false rows; the caller typically clusters only the valid
// rows and labels the rest Noise. The rows share one backing array.
func Extract(bursts []trace.Burst, feats []Feature) (pts []Point, valid []bool) {
	pts = make([]Point, len(bursts))
	valid = make([]bool, len(bursts))
	d := len(feats)
	flat := make([]float64, len(bursts)*d)
	for i := range bursts {
		p := Point(flat[i*d : (i+1)*d : (i+1)*d])
		ok := true
		for j, f := range feats {
			v, vok := featureOf(&bursts[i], f)
			if !vok {
				ok = false
				break
			}
			p[j] = v
		}
		if ok {
			pts[i] = p
			valid[i] = true
		}
	}
	return pts, valid
}

// Normalize rescales each feature dimension of the valid points to [0,1]
// (min-max with a per-dimension minimum span from minSpans, which may be
// nil), in place. Constant dimensions map to 0. It returns the per-dimension
// (min, max) used, for denormalizing centroids in reports.
func Normalize(pts []Point, valid []bool, minSpans []float64) (mins, maxs []float64) {
	dim := 0
	for i, p := range pts {
		if valid == nil || valid[i] {
			dim = len(p)
			break
		}
	}
	if dim == 0 {
		return nil, nil
	}
	mins = make([]float64, dim)
	maxs = make([]float64, dim)
	for j := range mins {
		mins[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	for i, p := range pts {
		if valid != nil && !valid[i] {
			continue
		}
		for j, v := range p {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	spans := make([]float64, dim)
	for j := range spans {
		spans[j] = maxs[j] - mins[j]
		if minSpans != nil && j < len(minSpans) && spans[j] < minSpans[j] {
			spans[j] = minSpans[j]
		}
	}
	for i, p := range pts {
		if valid != nil && !valid[i] {
			continue
		}
		for j := range p {
			if spans[j] > 0 {
				p[j] = (p[j] - mins[j]) / spans[j]
			} else {
				p[j] = 0
			}
		}
	}
	return mins, maxs
}

// MinSpans returns the normalization floors of a feature list, aligned by
// index, for passing to Normalize.
func MinSpans(feats []Feature) []float64 {
	out := make([]float64, len(feats))
	for i, f := range feats {
		out[i] = f.MinSpan()
	}
	return out
}

// ClusterBursts runs feature extraction, normalization and DBSCAN over the
// bursts and writes the labels into Burst.Cluster. It returns the labels.
func ClusterBursts(bursts []trace.Burst, feats []Feature, opt DBSCANOptions) ([]int, error) {
	return ClusterBurstsContext(context.Background(), bursts, feats, opt)
}

// ClusterBurstsContext is ClusterBursts under a cancellable context.
func ClusterBurstsContext(ctx context.Context, bursts []trace.Burst, feats []Feature, opt DBSCANOptions) ([]int, error) {
	pts, valid := Extract(bursts, feats)
	Normalize(pts, valid, MinSpans(feats))
	// Cluster the valid subset; splice labels back.
	idx := make([]int, 0, len(bursts))
	sub := make([]Point, 0, len(bursts))
	for i := range pts {
		if valid[i] {
			idx = append(idx, i)
			sub = append(sub, pts[i])
		}
	}
	subLabels, err := DBSCANContext(ctx, sub, opt)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(bursts))
	for i := range labels {
		labels[i] = Noise
	}
	for k, i := range idx {
		labels[i] = subLabels[k]
	}
	for i := range bursts {
		bursts[i].Cluster = labels[i]
	}
	return labels, nil
}
