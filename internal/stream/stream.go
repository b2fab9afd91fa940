// Package stream implements the incremental analysis engine: a Session
// accepts record chunks as they arrive — from a ChunkReader decoding a
// socket, or from a resident trace fed in one shot — and runs them through
// core.Ingest, the pipeline's one front half (per-rank validation, health
// checks, burst extraction with carry-over, sample linking into eagerly
// built folding clouds). Done settles the ingest and runs the shared tail,
// so the model is byte-identical to batch core.Analyze over the same
// records. What the session adds is what batch does not need: the lock
// for concurrent callers, the record window (ErrWindow), Consume over a
// ChunkReader, and live Snapshots labelled by a frozen assignment model.
// Consume decodes ahead: the reader's Next runs on its own goroutine, up
// to decodeAhead chunks before the one being fed, so decoding and ingest
// overlap on two cores while the chunks are still fed in decode order.
//
// A Session keeps a bounded window of samples (the ones that may still
// attach to a burst that has not closed yet) and a rank's events until its
// samples pass them: the merged-timeline counter check compares each
// sample with the events around it. Records come in per-rank order: each
// stream in time order, and every event before the rank's samples at or
// after its time. An event that arrives at or before a sample of its rank
// already fed is rejected as out of order. In container order (a rank's
// events, then its samples) the held events are up to one rank's event
// section at a time — O(events per rank), which the window does not count
// — plus each rank's events after its last sample, held until Done.
//
// So what a session holds is the window, plus during Consume the chunks in
// flight (at most decodeAhead+1 more than a serial loop, each up to the
// chunk limit), plus what grows with the trace: the burst list and each
// rank's folded rows, one row store per rank in which every burst owns a
// contiguous span (folding.Clouds) — the analysis input the tail needs at
// Done. A dropped rank releases its rows. BenchmarkStreamConsume (in the
// module root) reports the live heap a session holds per input record, and
// CI bounds how that figure grows with the trace.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"phasefold/internal/callstack"
	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/trace"
)

// ErrWindow reports that a Feed exceeded the session's record window: the
// stream carries more not-yet-attachable samples than the session is
// configured to buffer.
var ErrWindow = errors.New("stream: record window exceeded")

// ErrFinished reports a Feed or Done on a session Done already consumed.
var ErrFinished = errors.New("stream: session already finished")

// Options configures a streaming session.
type Options struct {
	// Core is the full pipeline configuration, shared verbatim with batch
	// Analyze: strictness, budgets, clustering, folding, fitting.
	Core core.Options
	// Window caps the records the session may buffer — the pending samples
	// that cannot attach to a burst yet. A Feed that exceeds it fails with
	// ErrWindow. The events the merged counter check holds are not counted
	// (see the package doc). Zero means DefaultWindow.
	Window int
	// SnapshotEvery is the snapshot recompute cadence in bursts: Snapshot
	// returns the cached view until at least this many new bursts landed.
	// Zero means DefaultSnapshotEvery.
	SnapshotEvery int
	// TrainAfter is how many bursts the provisional assignment model is
	// trained on. Zero means DefaultTrainAfter.
	TrainAfter int
}

// The option defaults.
const (
	DefaultWindow        = 1 << 16
	DefaultSnapshotEvery = 256
	DefaultTrainAfter    = 512
	// reclusterNoiseFrac triggers the periodic re-cluster fallback: when
	// more than this fraction of assigned bursts land as noise, the frozen
	// model no longer describes the stream and is retrained in full.
	reclusterNoiseFrac = 0.3
)

// Header identifies the stream being analyzed — the same fields a PFT
// container header carries.
type Header struct {
	App      string
	NumRanks int
	Symbols  *callstack.SymbolTable
	Stacks   *callstack.Interner
}

// Session is one incremental analysis in progress. Methods are safe for
// concurrent use, but records of one rank must be fed in stream order.
type Session struct {
	mu  sync.Mutex
	ctx context.Context
	opt Options
	in  *core.Ingest

	assignor *cluster.Assignor
	assigned int // bursts labelled by the frozen model since (re)training
	noise    int // of which noise
	snap     *Snapshot
	snapAt   int

	finished bool
	failed   error
	report   *trace.SalvageReport
}

// New opens a session for the stream identified by hdr. The context governs
// the whole session: every Feed checks it, and Done runs the pipeline tail
// under it.
func New(ctx context.Context, hdr Header, opt Options) (*Session, error) {
	if hdr.NumRanks <= 0 {
		return nil, fmt.Errorf("stream: header declares %d ranks (%w)", hdr.NumRanks, trace.ErrNoRanks)
	}
	if opt.Window <= 0 {
		opt.Window = DefaultWindow
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	if opt.TrainAfter <= 0 {
		opt.TrainAfter = DefaultTrainAfter
	}
	s := &Session{
		ctx: ctx,
		opt: opt,
		in:  core.NewIngest(hdr.App, hdr.NumRanks, hdr.Symbols, hdr.Stacks, opt.Core),
	}
	s.in.SetLabeler(s.assign)
	return s, nil
}

// assign labels a newly completed burst against the frozen model, when one
// exists.
func (s *Session) assign(b *trace.Burst) {
	if s.assignor == nil {
		return
	}
	b.Cluster = s.assignor.Assign(b)
	s.assigned++
	if b.Cluster == cluster.Noise {
		s.noise++
	}
}

// Feed ingests one chunk. Records of a rank must arrive in per-rank order
// (see the package doc): an event at or before a sample of its rank already
// fed is invalid, out of order. Chunks of different ranks may interleave
// arbitrarily. In strict mode an invalid record fails the session; in
// lenient mode the offending rank is dropped exactly as batch analysis
// drops an unrepairable rank, and the session continues. The session takes
// ownership of the chunk: it keeps the events until the rank's samples pass
// them (see the package doc), so the caller must not modify them
// afterwards. ChunkReader's chunks are fresh, and can be fed as they come.
func (s *Session) Feed(c trace.Chunk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feedLocked(&c)
}

func (s *Session) feedLocked(c *trace.Chunk) error {
	if s.finished {
		return ErrFinished
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if err := s.in.Feed(c); err != nil {
		return err
	}
	if peak := s.in.Peak(); peak > s.opt.Window {
		s.failed = fmt.Errorf("%w: %d samples buffered, window allows %d", ErrWindow, peak, s.opt.Window)
		return s.failed
	}
	return nil
}

// BufferedRecords returns the records currently buffered (pending samples).
func (s *Session) BufferedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.Buffered()
}

// PeakBufferedRecords returns the high-water mark of buffered records — the
// figure the bounded-memory guarantee is about.
func (s *Session) PeakBufferedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.Peak()
}

// Bursts returns the computation bursts completed so far.
func (s *Session) Bursts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.NumBursts()
}

// Consume drives the session from a chunk reader until end of stream — the
// path a service upload takes, decoding and analyzing while bytes arrive.
// The reader decodes ahead on its own goroutine, up to decodeAhead chunks
// before the one being fed, and the chunks are fed in decode order, so the
// model is the one a serial loop of Next and Feed gives. fed, when not nil,
// runs after each fed chunk, outside the session's lock. A decode error is
// returned once every chunk decoded before it has been fed; a Feed error
// stops the decoder. Either way Consume returns only after the decoder
// goroutine has exited, and a panic in the reader is raised again on the
// caller's goroutine. The reader's salvage report (if salvaging) is
// retained for SalvageReport when the stream reached its end.
func (s *Session) Consume(cr *trace.ChunkReader, chunkLimit int, fed func()) error {
	d := startDecoder(cr, chunkLimit)
	defer d.join()
	for dc := range d.out {
		if dc.err == io.EOF {
			s.mu.Lock()
			s.report = cr.Report()
			s.mu.Unlock()
			return nil
		}
		if dc.err != nil {
			return dc.err
		}
		s.mu.Lock()
		err := s.feedLocked(&dc.c)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if fed != nil {
			fed()
		}
	}
	return nil // Next panicked: the deferred join raises it
}

// decodeAhead is how many decoded chunks may wait for Feed. With the chunk
// the decoder is reading, Consume holds at most decodeAhead+1 chunks more
// than a serial loop would.
const decodeAhead = 2

// decoder runs a ChunkReader's Next on its own goroutine. The chunks are
// fresh and the reader's header tables are not written after
// NewChunkReader, so the session may read both while the decoder runs.
type decoder struct {
	out      chan decoded
	stop     chan struct{}
	panicked any // what Next panicked with; written before out closes
}

// decoded is one Next result.
type decoded struct {
	c   trace.Chunk
	err error
}

// testHookNext, when set, runs on the decoder goroutine before each Next.
var testHookNext func()

// decoding counts the decoder goroutines that have not finished; a decoder
// leaves the count before its channel closes, so a Consume that joined its
// decoder has left it.
var decoding atomic.Int32

func startDecoder(cr *trace.ChunkReader, limit int) *decoder {
	d := &decoder{out: make(chan decoded, decodeAhead), stop: make(chan struct{})}
	decoding.Add(1)
	go d.run(cr, limit)
	return d
}

// run decodes until Next returns an error (io.EOF included), Next panics, or
// join stops it.
func (d *decoder) run(cr *trace.ChunkReader, limit int) {
	defer close(d.out)
	defer decoding.Add(-1)
	defer func() { d.panicked = recover() }()
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		if testHookNext != nil {
			testHookNext()
		}
		c, err := cr.Next(limit)
		select {
		case d.out <- decoded{c, err}:
		case <-d.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// join stops the decoder and waits for its goroutine to finish the Next in
// flight, then raises a panic of Next on the caller's goroutine.
func (d *decoder) join() {
	close(d.stop)
	for range d.out {
	}
	if d.panicked != nil {
		panic(d.panicked)
	}
}

// FeedTrace streams a resident trace through the session: the batch front
// half over the session's ingest, so FeedTrace + Done gives the model batch
// core.Analyze gives on any trace, including the per-rank repair of each
// rank that fails validation. The trace is never modified. It must be the
// session's only input.
func (s *Session) FeedTrace(tr *trace.Trace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return ErrFinished
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.in.FeedTrace(s.ctx, tr); err != nil {
		s.failed = err
		return err
	}
	return nil
}

// SalvageReport returns the chunk reader's salvage summary after a salvaging
// Consume reached end of stream, nil otherwise.
func (s *Session) SalvageReport() *trace.SalvageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Done finishes the stream and runs the pipeline tail over everything the
// session accumulated. The model is byte-identical to batch Analyze over
// the same records. The session cannot be fed afterwards.
func (s *Session) Done() (*core.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil, ErrFinished
	}
	if s.failed != nil {
		return nil, s.failed
	}
	s.finished = true
	return s.in.Done(s.ctx)
}
