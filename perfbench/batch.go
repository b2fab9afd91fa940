package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"phasefold"
	"phasefold/internal/core"
	"phasefold/internal/trace"
)

// batch_refine: a closed loop with one client. Each op decodes one trace
// and analyzes it with Aggregative Cluster Refinement, exports off. One
// pass runs the ladder below, each entry a trace of its own seed, 4 ranks,
// 1 ms sampling. Refinement does most of the work. cg at 400 iterations is
// superlinear (about 6.4k bursts) and appears twice per pass, so that it
// holds more than the ten slowest ops of a run and sets the tail latency.
var batchLadder = []rung{
	{"multiphase", 100}, {"multiphase", 400},
	{"cg", 100}, {"cg", 400}, {"cg", 400},
	{"stencil", 100}, {"stencil", 400},
	{"nbody", 100}, {"nbody", 400},
	{"amr", 100}, {"amr", 400},
}

// batchPassSeconds is the nominal time of one pass over the ladder on a
// 2-core machine. It turns --seconds into a fixed op count (never a
// time-bounded loop, which would change the op mix from run to run).
const batchPassSeconds = 2.9

// batchAccuracySeeds extra 100-iteration traces per app feed the accuracy
// metrics (see setupLadder); refinement makes them cheap to analyze.
const batchAccuracySeeds = 12

const batchPeriod = phasefold.Millisecond

func batchOptions() core.Options {
	opt := core.DefaultOptions()
	opt.UseRefinement = true
	return opt
}

// fixtureSet is a workload's generated traces with the reference each op
// is checked against.
type fixtureSet struct {
	heap offHeap
	fx   []*fixture
	refs []signature
	acc  accuracy
}

func (s *fixtureSet) release() { s.heap.release() }

// rung is one ladder entry: an app simulated for iters iterations.
type rung struct {
	app   string
	iters int
}

// setupLadder generates one trace per rung, each from its own seed, and
// analyzes every trace once through a serial Decode + Analyze: that pass is
// the warm-up, the reference each op is checked against, and the accuracy
// against the simulator's ground truth. accSeeds extra traces per app, at
// 100 iterations, are analyzed for the accuracy alone: the ladder by itself
// is too few traces for phase_error_pct to be steady from seed to seed.
func setupLadder(seed uint64, ladder []rung, accSeeds int, period phasefold.Duration, opt core.Options) (*fixtureSet, error) {
	s := &fixtureSet{}
	var extra offHeap
	defer extra.release()
	for k := 0; k < len(ladder)+accSeeds*len(apps); k++ {
		r := rung{apps[k%len(apps)], 100}
		heap := &extra
		if k < len(ladder) {
			r, heap = ladder[k], &s.heap
		}
		f, err := makeFixture(heap, r.app, r.iters, mix(seed, uint64(k)), period, "")
		if err != nil {
			s.release()
			return nil, err
		}
		m, err := referenceAnalysis(f, opt)
		if err != nil {
			s.release()
			return nil, err
		}
		s.acc.add(m, f.truth)
		if k < len(ladder) {
			s.fx = append(s.fx, f)
			s.refs = append(s.refs, signatureOf(m))
		}
	}
	return s, nil
}

// referenceAnalysis decodes and analyzes f with one worker. The timed ops
// run with the default parallelism, so each is checked against the serial
// form of the same analysis, whose output must be identical at any
// parallelism.
func referenceAnalysis(f *fixture, opt core.Options) (*core.Model, error) {
	ctx := context.Background()
	tr, _, err := phasefold.Decode(ctx, bytes.NewReader(f.data), phasefold.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.name, err)
	}
	opt.Parallelism = 1
	m, err := phasefold.Analyze(ctx, tr, phasefold.WithOptions(opt))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.name, err)
	}
	return m, nil
}

// opCount turns the time budget into a fixed number of passes over n
// fixtures.
func opCount(seconds, passSeconds float64, n int) int {
	return n * int(math.Max(1, math.Round(seconds/passSeconds)))
}

func runBatch(p params) (*result, error) {
	opt := batchOptions()
	set, setupS, err := timedSetups(func() (*fixtureSet, error) {
		return setupLadder(p.seed, batchLadder, batchAccuracySeeds, batchPeriod, opt)
	}, (*fixtureSet).release)
	if err != nil {
		return nil, err
	}
	defer set.release()
	e := &endToEnd{setupS: setupS, acc: set.acc, tally: &tally{}}
	run := newLadderRun(set.fx)
	ops := opCount(p.seconds, batchPassSeconds, len(set.fx))
	ctx := context.Background()
	hp := startHeapPeak()
	window := time.Now()
	for i := 0; i < ops; i++ {
		k := i % len(set.fx)
		f, ref := set.fx[k], set.refs[k]
		t0 := time.Now()
		tr, _, err := phasefold.Decode(ctx, bytes.NewReader(f.data))
		t1 := time.Now()
		var m *phasefold.Model
		if err == nil {
			m, err = phasefold.Analyze(ctx, tr, phasefold.WithOptions(opt))
		}
		t2 := time.Now()
		e.lat = append(e.lat, t2.Sub(t0))
		e.lag = append(e.lag, t2.Sub(t1))
		run.add(k, t2.Sub(t0), t1.Sub(t0))
		switch {
		case err != nil:
			e.tally.fail("%s: %v", f.name, err)
		case signatureOf(m).diff(ref) != "":
			e.tally.fail("%s: %s", f.name, signatureOf(m).diff(ref))
		default:
			e.tally.ok()
		}
	}
	elapsed := time.Since(window)
	e.peakMB = hp.endMB()
	e.opsPerS, e.recordsPerS = run.rates(elapsed)
	e.lines = append(e.lines, run.summary("batch_refine"))
	return e.result("batch_refine"), nil
}

// traceBatch runs each op twice, serially: once untraced through the
// public API, once composed from the layers' own functions with a span
// around every call. The composed outputs must equal the reference.
func traceBatch(p params) (*result, error) {
	opt := batchOptions()
	opt.Parallelism = 1
	set, err := setupLadder(p.seed, batchLadder, batchAccuracySeeds, batchPeriod, opt)
	if err != nil {
		return nil, err
	}
	defer set.release()
	t := newTracedOps()
	ctx := context.Background()
	ops := opCount(p.seconds/2, batchPassSeconds, len(set.fx))
	dopt := trace.DecodeOptions{}
	dopt.Parallelism = 1
	for i := 0; i < ops; i++ {
		f, ref := set.fx[i%len(set.fx)], set.refs[i%len(set.fx)]
		t0 := time.Now()
		tr, _, err := phasefold.Decode(ctx, bytes.NewReader(f.data), phasefold.WithParallelism(1))
		if err == nil {
			_, err = phasefold.Analyze(ctx, tr, phasefold.WithOptions(opt))
		}
		t.untraced += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		t.rec.op = i
		sig, err := composeBatchOp(t, ctx, f.data, dopt, opt)
		t.rec.op = i + 1
		switch {
		case err != nil:
			t.tally.fail("%s composed: %v", f.name, err)
		case sig.diff(ref) != "":
			t.tally.fail("%s composed: %s", f.name, sig.diff(ref))
		default:
			t.tally.ok()
		}
	}
	return t.result("batch_refine", p.seed)
}

func composeBatchOp(t *tracedOps, ctx context.Context, data []byte, dopt trace.DecodeOptions, opt core.Options) (signature, error) {
	tr, bursts, err := composeFront(t, ctx, data, dopt, opt)
	if err != nil {
		return signature{}, err
	}
	return composeTail(t, ctx, tr, bursts, opt)
}
