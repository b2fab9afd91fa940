package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"phasefold"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/obs"
	"phasefold/internal/stream"
	"phasefold/internal/trace"
)

// stream_dense: a closed loop with one client. Each op streams one trace
// through Stream → Consume → Done with the default (plain DBSCAN)
// options. A pass is the five apps at 100 iterations (two traces of their
// own seed each) and at 200 iterations (three each), 4 ranks, sampled every
// 100 µs — ten times denser than the default, so ingest and folding
// dominate and clustering is small. The three 200-iteration cg traces are
// the slowest ops; with three of them the tail latency falls inside their
// group rather than at the edge between two traces.
var streamLadder = func() []rung {
	var l []rung
	for _, t := range []struct{ iters, seeds int }{{100, 2}, {200, 3}} {
		for _, app := range apps {
			for j := 0; j < t.seeds; j++ {
				l = append(l, rung{app, t.iters})
			}
		}
	}
	return l
}()

const (
	streamPeriod      = 100 * phasefold.Microsecond
	streamPassSeconds = 3.0
	// streamAccuracySeeds extra 100-iteration traces per app feed the
	// accuracy metrics (see setupLadder).
	streamAccuracySeeds = 4
	// streamChunk is the record count per chunk the traced run reads, the
	// granularity Session.Consume uses.
	streamChunk = 4096
)

func runStream(p params) (*result, error) {
	opt := core.DefaultOptions()
	set, setupS, err := timedSetups(func() (*fixtureSet, error) {
		s, err := setupLadder(p.seed, streamLadder, streamAccuracySeeds, streamPeriod, opt)
		if err != nil {
			return nil, err
		}
		// The batch reference pass warmed the shared tail; one streamed
		// op warms the chunk reader and the session.
		if _, _, err := streamOp(s.fx[0].data, opt); err != nil {
			s.release()
			return nil, fmt.Errorf("%s: %w", s.fx[0].name, err)
		}
		return s, nil
	}, (*fixtureSet).release)
	if err != nil {
		return nil, err
	}
	defer set.release()
	e := &endToEnd{setupS: setupS, acc: set.acc, tally: &tally{}}
	run := newLadderRun(set.fx)
	ops := opCount(p.seconds, streamPassSeconds, len(set.fx))
	hp := startHeapPeak()
	window := time.Now()
	for i := 0; i < ops; i++ {
		k := i % len(set.fx)
		f, ref := set.fx[k], set.refs[k]
		t0 := time.Now()
		m, consumed, err := streamOp(f.data, opt)
		t2 := time.Now()
		e.lat = append(e.lat, t2.Sub(t0))
		e.lag = append(e.lag, t2.Sub(consumed))
		run.add(k, t2.Sub(t0), consumed.Sub(t0))
		switch {
		case err != nil:
			e.tally.fail("%s: %v", f.name, err)
		case signatureOf(m).diff(ref) != "":
			// The reference is batch Analyze on the same bytes: streamed
			// results must be identical to it.
			e.tally.fail("%s: streamed != batch: %s", f.name, signatureOf(m).diff(ref))
		default:
			e.tally.ok()
		}
	}
	elapsed := time.Since(window)
	e.peakMB = hp.endMB()
	e.opsPerS, e.recordsPerS = run.rates(elapsed)
	e.lines = append(e.lines, run.summary("stream_dense"))
	return e.result("stream_dense"), nil
}

// streamOp streams data through a session and returns the model and the
// moment the last record had been consumed.
func streamOp(data []byte, opt core.Options) (*phasefold.Model, time.Time, error) {
	sess, err := phasefold.Stream(context.Background(), phasefold.WithOptions(opt))
	if err != nil {
		return nil, time.Time{}, err
	}
	if err := sess.Consume(bytes.NewReader(data)); err != nil {
		return nil, time.Now(), err
	}
	consumed := time.Now()
	m, err := sess.Done()
	return m, consumed, err
}

// traceStream runs each op twice, serially: once untraced through the
// public API, once with a span around every ChunkReader.Next, Session.Feed
// and Session.Done call. Done's clustering, folding, and fitting are split
// out of it by the stage spans the pipeline already records (cluster,
// fold, fit); attribution runs inside fit there. The traced model must
// equal the batch reference.
func traceStream(p params) (*result, error) {
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	set, err := setupLadder(p.seed, streamLadder, streamAccuracySeeds, streamPeriod, opt)
	if err != nil {
		return nil, err
	}
	defer set.release()
	t := newTracedOps()
	ops := opCount(p.seconds/2, streamPassSeconds, len(set.fx))
	for i := 0; i < ops; i++ {
		f, ref := set.fx[i%len(set.fx)], set.refs[i%len(set.fx)]
		t0 := time.Now()
		if _, _, err := streamOp(f.data, opt); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		t.untraced += time.Since(t0)
		t.rec.op = i
		m, peak, err := composeStreamOp(t, f.data, opt)
		t.rec.op = i + 1
		t.peakRecords = append(t.peakRecords, float64(peak))
		switch {
		case err != nil:
			t.tally.fail("%s traced: %v", f.name, err)
		case signatureOf(m).diff(ref) != "":
			t.tally.fail("%s traced: %s", f.name, signatureOf(m).diff(ref))
		default:
			t.clusteredOf(m.Bursts)
			t.tally.ok()
		}
	}
	return t.result("stream_dense", p.seed)
}

func composeStreamOp(t *tracedOps, data []byte, opt core.Options) (*core.Model, int, error) {
	r := t.rec
	rec := obs.NewRecorder()
	ctx := obs.WithTelemetry(context.Background(), rec, nil)
	var cr *trace.ChunkReader
	if _, err := r.call("trace.chunk", -1, func() (int64, error) {
		var err error
		cr, err = trace.NewChunkReader(ctx, bytes.NewReader(data), trace.DecodeOptions{})
		return 0, err
	}); err != nil {
		return nil, 0, err
	}
	sess, err := stream.New(ctx, stream.Header{
		App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks(),
	}, stream.Options{Core: opt})
	if err != nil {
		return nil, 0, err
	}
	for {
		var c trace.Chunk
		_, err := r.call("trace.chunk", -1, func() (int64, error) {
			var err error
			c, err = cr.Next(streamChunk)
			return int64(c.Records()), err
		})
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if _, err := r.call("stream.feed", -1, func() (int64, error) {
			return int64(c.Records()), sess.Feed(c)
		}); err != nil {
			return nil, 0, err
		}
	}
	var m *core.Model
	done, err := r.call("stream.done", -1, func() (int64, error) {
		var err error
		m, err = sess.Done()
		if err != nil {
			return 0, err
		}
		return int64(m.NumBursts), nil
	})
	if err != nil {
		return nil, 0, err
	}
	roots := rec.Roots()
	if len(roots) == 0 {
		return nil, 0, fmt.Errorf("session recorded no analysis span")
	}
	analyze := roots[len(roots)-1]
	var foldedPoints, fitPoints int64
	for _, ca := range m.Clusters {
		if ca.Folded != nil {
			foldedPoints += int64(ca.Folded.TotalPoints())
		}
		if ca.Fit != nil {
			fitPoints += int64(len(ca.Folded.Points[counters.Instructions]))
		}
	}
	r.adopt(done, "cluster.dbscan", analyze.Child("cluster"), int64(m.NumBursts))
	r.adopt(done, "folding.fold", analyze.Child("fold"), foldedPoints)
	r.adopt(done, "pwl.fit", analyze.Child("fit"), fitPoints)
	return m, sess.PeakBufferedRecords(), nil
}
