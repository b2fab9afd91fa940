package service

import (
	"context"
	"io"

	"phasefold/internal/core"
	"phasefold/internal/obs"
	"phasefold/internal/runner"
	"phasefold/internal/stream"
	"phasefold/internal/trace"
)

// Streamed uploads: a chunked (unknown-length) binary body is analyzed while
// it is still arriving. The spool copy tees every byte into a pipe feeding an
// incremental stream.Session, so the job's `stream` span runs concurrently
// with its `spool` span, and the session's stage spans nest under it. The
// attempt is bounded by the job timeout, like a queued run. When the body
// lands the session is sealed; a pristine result — clean decode, no rank
// dropped by the session — is carried by the upload's job, which finishes
// inline and never enters the queue. Anything else (damage, dropped ranks,
// session failure, timeout) falls back to the queued path, whose input is
// complete on disk regardless: the tee never gates the spool.

// streamChunkRecords is the record granularity the streamed path feeds the
// session: small enough to keep live snapshots fresh, large enough to
// amortize decode state transitions.
const streamChunkRecords = 4096

// streamAttempt is one incremental analysis racing an upload's spool copy.
type streamAttempt struct {
	s    *Service
	pw   *io.PipeWriter
	span *obs.Span
	done chan struct{}

	// Written by the consume goroutine before done closes, read after.
	model  *core.Model
	skel   *trace.Trace
	report *trace.SalvageReport
	err    error

	// jr is the run result of a pristine attempt, set by seal.
	jr runner.JobResult
}

// beginStreamAttempt starts the incremental analysis for one upload and
// returns the attempt plus the writer the spool copy tees into. The returned
// writer never blocks the upload: the goroutine drains the pipe to the end
// even after the session fails.
func (s *Service) beginStreamAttempt(jt *jobTrace) (*streamAttempt, io.Writer) {
	pr, pw := io.Pipe()
	a := &streamAttempt{s: s, pw: pw, span: jt.stage(stageStream), done: make(chan struct{})}
	ctx, cancel := s.runCtx, context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	ctx = s.jobContext(ctx, jt, a.span)
	go func() {
		defer close(a.done)
		defer cancel()
		defer io.Copy(io.Discard, pr) // keep the tee writable whatever happened
		defer s.livePhases.Store(nil)
		a.err = a.consume(ctx, pr)
	}()
	return a, pw
}

// consume drives the chunk reader into a session, publishing live snapshots
// to the dashboard between chunks.
func (a *streamAttempt) consume(ctx context.Context, pr *io.PipeReader) error {
	s := a.s
	cr, err := trace.NewChunkReader(ctx, pr, s.cfg.Decode)
	if err != nil {
		return err
	}
	sess, err := stream.New(ctx, stream.Header{
		App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks(),
	}, stream.Options{Core: s.cfg.Analysis})
	if err != nil {
		return err
	}
	var lastSnap *stream.Snapshot
	for {
		c, err := cr.Next(streamChunkRecords)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sess.Feed(c); err != nil {
			return err
		}
		if snap := sess.Snapshot(); snap != lastSnap {
			lastSnap = snap
			s.livePhases.Store(snap)
			s.publishDash()
		}
	}
	a.report = cr.Report()
	if a.skel, err = cr.Skeleton(); err != nil {
		return err
	}
	a.model, err = sess.Done()
	return err
}

// seal ends the attempt once the upload's body has fully landed (or failed
// with copyErr) and records the outcome on the `stream` span. A pristine
// attempt gets the run result the supervisor reports for a first-attempt
// success.
func (a *streamAttempt) seal(copyErr error) {
	if copyErr != nil {
		a.pw.CloseWithError(copyErr)
	} else {
		a.pw.Close()
	}
	<-a.done
	switch {
	case copyErr != nil:
		a.span.SetAttr("result", "body-error")
	case a.err != nil:
		a.span.SetAttr("result", "failed")
		a.span.SetAttr("error", a.err.Error())
	case a.pristine():
		a.span.SetAttr("result", "pristine")
		a.jr = runner.JobResult{Outcome: runner.OK, Attempts: 1}
		var degraded bool
		a.jr.Detail, degraded = summarize(a.model, a.report)
		if degraded {
			a.jr.Outcome = runner.Degraded
		}
	default:
		a.span.SetAttr("result", "fallback")
	}
	a.span.End()
}

// pristine reports whether the sealed attempt may serve as the upload's
// result: the stream decoded without salvage repairs, the session finished,
// and it dropped no rank (no "validate" diagnostic). Diagnostics of the
// shared pipeline tail, such as a sparse folded cloud, do not disqualify
// it: batch raises them identically. The session validates with batch's
// record validator, counter monotonicity on the merged event+sample
// timeline included. The daemon feeds ChunkReader's chunks in container
// order (each rank's events before its samples), where that check is
// exact, so any record batch would repair drops a rank here and the
// streamed model is the batch path's.
func (a *streamAttempt) pristine() bool {
	if a.err != nil || a.model == nil || (a.report != nil && !a.report.Complete()) {
		return false
	}
	for _, d := range a.model.Diagnostics {
		if d.Stage == "validate" {
			return false
		}
	}
	return true
}
