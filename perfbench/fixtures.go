package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"phasefold"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/metrics"
	"phasefold/internal/simapp"
)

// apps are the five bundled simulated applications every workload draws
// its traces from.
var apps = []string{"multiphase", "cg", "stencil", "nbody", "amr"}

// fixture is one generated trace, encoded, with the ground truth of the
// simulation that produced it.
type fixture struct {
	name    string
	data    []byte // encoded trace, held off the Go heap
	records int
	truth   *simapp.Truth
	faulted bool
}

// mix derives the k-th fixture seed from the run seed (splitmix64), so the
// same --seed always yields the same inputs.
func mix(seed, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + (k+1)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// makeFixture simulates app on 4 ranks for iters iterations at the given
// sampling period and encodes the trace. A non-empty fault spec damages
// the trace and its encoding deterministically from seed.
func makeFixture(heap *offHeap, app string, iters int, seed uint64, period phasefold.Duration, faultSpec string) (*fixture, error) {
	a, err := phasefold.NewApp(app)
	if err != nil {
		return nil, err
	}
	opt := phasefold.DefaultOptions()
	opt.SamplingPeriod = period
	run, err := phasefold.RunApp(a, phasefold.Config{Ranks: 4, Iterations: iters, Seed: seed, FreqGHz: 2}, opt)
	if err != nil {
		return nil, err
	}
	var chain *phasefold.FaultChain
	if faultSpec != "" {
		if chain, err = phasefold.ParseFaults(faultSpec, seed); err != nil {
			return nil, err
		}
		chain.ApplyTrace(run.Trace)
	}
	var buf bytes.Buffer
	if err := phasefold.EncodeTrace(&buf, run.Trace); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", app, err)
	}
	data, err := heap.copy(chain.ApplyStream(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &fixture{
		name:    fmt.Sprintf("%s/%d/%x", app, iters, seed),
		data:    data,
		records: run.Trace.NumEvents() + run.Trace.NumSamples(),
		truth:   run.Truth,
		faulted: faultSpec != "",
	}, nil
}

// signature is the part of a Model every op is checked on: the cluster
// label of every burst, each cluster's phase breakpoints, and the SPMD
// score.
type signature struct {
	labels []int
	bps    map[int][]float64
	spmd   float64
}

func signatureOf(m *core.Model) signature {
	s := signature{labels: make([]int, len(m.Bursts)), bps: map[int][]float64{}, spmd: m.SPMDScore}
	for i := range m.Bursts {
		s.labels[i] = m.Bursts[i].Cluster
	}
	for _, ca := range m.Clusters {
		if ca.Fit != nil {
			s.bps[ca.Label] = ca.Fit.Breakpoints
		}
	}
	return s
}

// diff describes the first difference between two signatures, "" when
// they are equal.
func (s signature) diff(o signature) string {
	if len(s.labels) != len(o.labels) {
		return fmt.Sprintf("%d bursts, want %d", len(s.labels), len(o.labels))
	}
	for i := range s.labels {
		if s.labels[i] != o.labels[i] {
			return fmt.Sprintf("burst %d labelled %d, want %d", i, s.labels[i], o.labels[i])
		}
	}
	if len(s.bps) != len(o.bps) {
		return fmt.Sprintf("%d fitted clusters, want %d", len(s.bps), len(o.bps))
	}
	for l, b := range o.bps {
		got, ok := s.bps[l]
		if !ok || len(got) != len(b) {
			return fmt.Sprintf("cluster %d breakpoints %v, want %v", l, got, b)
		}
		for i := range b {
			if got[i] != b[i] {
				return fmt.Sprintf("cluster %d breakpoints %v, want %v", l, got, b)
			}
		}
	}
	if s.spmd != o.spmd {
		return fmt.Sprintf("spmd score %v, want %v", s.spmd, o.spmd)
	}
	return ""
}

// accuracy pools the paper's accuracy measures over many analyses against
// the simulator's ground truth: the mean MIPS profile error over every
// region the model reconstructed, and the breakpoint precision/recall
// pooled over all regions.
type accuracy struct {
	errSum                    float64
	matched, detected, actual int
	regions, unfit            int
}

// Profile grid and breakpoint tolerance, as in the evaluation experiments.
const (
	profileGrid = 96
	bpTolerance = 0.03
)

func (a *accuracy) add(m *core.Model, truth *simapp.Truth) {
	ids := make([]int64, 0, len(truth.Regions))
	for id := range truth.Regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rt := truth.Regions[id]
		a.regions++
		a.actual += len(rt.Breakpoints())
		ca := m.ClusterByRegion(id)
		if ca == nil || ca.Fit == nil {
			a.unfit++
			continue
		}
		scale, ok := ca.Folded.RateScale(counters.Instructions)
		if !ok {
			a.unfit++
			continue
		}
		got := metrics.SampleRates(ca.Fit, scale/1e6, profileGrid)
		want := metrics.SampleTruthRates(func(x float64) float64 {
			return rt.RateAt(x)[counters.Instructions] / 1e6
		}, profileGrid)
		a.errSum += metrics.RelMAE(got, want)
		be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, rt.Breakpoints(), bpTolerance)
		a.matched += be.Matched
		a.detected += be.Detected
	}
}

func (a *accuracy) merge(o accuracy) {
	a.errSum += o.errSum
	a.matched += o.matched
	a.detected += o.detected
	a.actual += o.actual
	a.regions += o.regions
	a.unfit += o.unfit
}

func (a *accuracy) errorPct() float64 {
	fitted := a.regions - a.unfit
	if fitted == 0 {
		return math.NaN()
	}
	return 100 * a.errSum / float64(fitted)
}

// reconstructed is the share of the truth's regions the model fitted a
// profile for. phase_error_pct averages over these regions alone, so a
// change that loses regions shows here rather than as a lower error.
func (a *accuracy) reconstructed() float64 {
	if a.regions == 0 {
		return math.NaN()
	}
	return float64(a.regions-a.unfit) / float64(a.regions)
}

func (a *accuracy) f1() float64 {
	if a.detected == 0 || a.actual == 0 || a.matched == 0 {
		return 0
	}
	p := float64(a.matched) / float64(a.detected)
	r := float64(a.matched) / float64(a.actual)
	return 2 * p * r / (p + r)
}

func (a *accuracy) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile error %.3f%% over %d regions (%d not reconstructed), breakpoints matched %d of %d true, %d detected",
		a.errorPct(), a.regions, a.unfit, a.matched, a.actual, a.detected)
	return b.String()
}
