package service

import (
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
// with its `spool` span. When the body lands the session is sealed; a
// pristine result — clean decode, no rank dropped by the session — is
// published directly and never enters the queue. Anything else (damage,
// dropped ranks, session failure) falls back to the classic spooled path,
// whose input is complete on disk regardless: the tee never gates the spool.

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
}

// beginStreamAttempt starts the incremental analysis for one upload and
// returns the attempt plus the writer the spool copy tees into. The returned
// writer never blocks the upload: the goroutine drains the pipe to the end
// even after the session fails.
func (s *Service) beginStreamAttempt(jt *jobTrace) (*streamAttempt, io.Writer) {
	pr, pw := io.Pipe()
	a := &streamAttempt{s: s, pw: pw, span: jt.stage(stageStream), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer io.Copy(io.Discard, pr) // keep the tee writable whatever happened
		defer s.livePhases.Store(nil)
		a.err = a.consume(pr)
	}()
	return a, pw
}

// consume drives the chunk reader into a session, publishing live snapshots
// to the dashboard between chunks.
func (a *streamAttempt) consume(pr *io.PipeReader) error {
	s := a.s
	cr, err := trace.NewChunkReader(s.runCtx, pr, s.cfg.Decode)
	if err != nil {
		return err
	}
	sess, err := stream.New(s.runCtx, stream.Header{
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
// with copyErr) and records the outcome on the `stream` span.
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

// streamedResult renders a pristine attempt into the same servable result
// the worker would have produced: identical report document and artifacts,
// minus the queue wait.
func (a *streamAttempt) streamedResult(j *job) *result {
	if !a.pristine() {
		return nil
	}
	detail, degraded, diags := summarize(a.model, a.report)
	jr := runner.JobResult{
		Name:     "sha256:" + shortDigest(j.key.Digest),
		Outcome:  runner.OK,
		Detail:   detail,
		Attempts: 1,
	}
	if degraded {
		jr.Outcome = runner.Degraded
	}
	return buildResult(j, jr, a.model.Export(a.skel), a.model.App, a.model.NumClusters, a.model.NumBursts, diags)
}
