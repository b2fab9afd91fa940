// Package stream implements the incremental analysis engine: a Session
// accepts record chunks as they arrive — from a ChunkReader decoding a
// socket, or from a resident trace fed in one shot — and maintains the
// batch pipeline's per-stage state machines online: per-rank validation and
// burst extraction with carry-over, health accumulators, eager folding
// clouds built at sample-attach time, and a provisional cluster assignment
// against a frozen model for live snapshots. Done hands the accumulated
// bursts, clouds, and diagnostics to core.AnalyzeBursts, whose output is
// byte-identical to batch core.Analyze over the same records: every
// incremental structure either is the batch implementation (the extractor,
// the health observer, the folding algebra) or replays into the batch code
// path in the exact order the batch run would have produced.
//
// A Session retains no raw events and only a bounded window of samples (the
// ones that may still attach to a burst that has not closed yet); what grows
// with the trace is the burst list and the folded clouds — the analysis
// output itself — not the input records.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"phasefold/internal/callstack"
	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/folding"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// ErrWindow reports that a Feed would exceed the session's record window:
// the stream carries more not-yet-attachable samples than the session is
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
	// that cannot attach to a burst yet. Feeds that would exceed it fail
	// with ErrWindow. Zero means DefaultWindow.
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

// rankState is one rank's carry-over between chunks.
type rankState struct {
	// Validation state: per-stream time cursors, per-stream counter
	// monotonicity, nesting depths, record indices for error messages.
	evPrev, smpPrev sim.Time
	evLast, smpLast [counters.NumIDs]int64
	evSeen, smpSeen [counters.NumIDs]bool
	depthRegion     int
	depthComm       int
	evIdx, smpIdx   int
	dropped         bool  // lenient validation dropped the rank
	dropErr         error // why

	x          *trace.Extractor
	extractErr error // lenient extraction failure; rank contributes no bursts

	bursts []trace.Burst // completed bursts, stream order
	cursor int           // first burst still accepting samples
	clouds map[folding.BurstKey]*folding.BurstCloud

	pending       []trace.Sample // samples not yet attachable
	pendHead      int
	si            int // arrival index of the next sample to place (= batch FirstSmp base)
	lastEventTime sim.Time

	events, samples int
}

// Session is one incremental analysis in progress. Methods are safe for
// concurrent use, but records of one rank must be fed in stream order.
type Session struct {
	mu  sync.Mutex
	ctx context.Context
	opt Options
	hdr Header

	ranks  []rankState
	health *core.HealthObserver

	totalBursts int
	pendingTot  int
	pendingPeak int

	preDiags []core.Diagnostic // sanitize diagnostics from a FeedTrace repair

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
		ctx:    ctx,
		opt:    opt,
		hdr:    hdr,
		ranks:  make([]rankState, hdr.NumRanks),
		health: core.NewHealthObserver(hdr.NumRanks),
	}
	bopt := trace.BurstOptions{MinDuration: opt.Core.MinBurstDuration}
	for r := range s.ranks {
		s.ranks[r].x = trace.NewExtractor(int32(r), bopt)
	}
	return s, nil
}

// Feed ingests one chunk. Records of a rank must arrive in stream order;
// chunks of different ranks may interleave arbitrarily. In strict mode the
// first invalid record fails the session; in lenient mode the offending
// rank is dropped exactly as batch prepare would drop an unrepairable rank,
// and the session continues.
func (s *Session) Feed(c trace.Chunk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feedLocked(c)
}

func (s *Session) feedLocked(c trace.Chunk) error {
	if s.finished {
		return ErrFinished
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if c.Rank < 0 || c.Rank >= len(s.ranks) {
		return fmt.Errorf("stream: chunk for rank %d, session has %d ranks (%w)", c.Rank, len(s.ranks), trace.ErrInvalid)
	}
	rs := &s.ranks[c.Rank]
	if rs.dropped {
		return nil // batch cleared this rank; later records are void
	}
	for i := range c.Events {
		if err := s.feedEvent(rs, c.Rank, c.Events[i]); err != nil {
			return err
		}
		if rs.dropped {
			return nil
		}
	}
	// The chunk's events land before its samples, so every burst they close
	// is available by the time the samples arrive; attaching each sample as
	// it lands keeps the pending buffer at the true carry-over (samples of
	// the still-open burst) instead of a whole chunk.
	if rs.extractErr == nil {
		s.drainBursts(rs)
	}
	s.attach(rs)
	for i := range c.Samples {
		if err := s.feedSample(rs, c.Rank, c.Samples[i]); err != nil {
			return err
		}
		if rs.dropped {
			return nil
		}
		s.attach(rs)
	}
	return nil
}

// fail records a validation failure: strict mode makes it the session's
// sticky error; lenient mode drops the rank like batch prepare does.
func (s *Session) fail(rs *rankState, rank int, err error) error {
	if s.opt.Core.Strict {
		s.failed = fmt.Errorf("core: validating trace: %w", err)
		return s.failed
	}
	s.dropRank(rs, rank, err)
	return nil
}

// dropRank voids a rank mid-stream: its records leave every accumulator so
// the session's state matches a batch run whose prepare cleared the rank.
func (s *Session) dropRank(rs *rankState, rank int, err error) {
	rs.dropped = true
	rs.dropErr = err
	s.totalBursts -= len(rs.bursts)
	rs.bursts = nil
	rs.clouds = nil
	s.pendingTot -= len(rs.pending) - rs.pendHead
	rs.pending = nil
	rs.pendHead = 0
	rs.events, rs.samples = 0, 0
	s.health.Reset(rank)
}

func (s *Session) feedEvent(rs *rankState, rank int, e trace.Event) error {
	i := rs.evIdx
	rs.evIdx++
	// The per-record validation mirrors trace.ValidateRank field by field;
	// counter monotonicity is checked per stream rather than on the merged
	// event+sample timeline (the streams are consumed independently). The
	// weaker check never rejects a trace the batch validator accepts, but it
	// also accepts some that batch repairs: a sample whose counter falls
	// below the preceding event's yet stays above the previous sample's
	// passes here, while batch masks it as sanitize/counter-regress and
	// grades the model degraded.
	switch {
	case e.Time < rs.evPrev:
		return s.fail(rs, rank, fmt.Errorf("%w: rank %d event %d out of order (%d after %d)", trace.ErrInvalid, rank, i, e.Time, rs.evPrev))
	case int(e.Rank) != rank:
		return s.fail(rs, rank, fmt.Errorf("%w: rank %d event %d carries rank %d", trace.ErrInvalid, rank, i, e.Rank))
	case !e.Type.Valid():
		return s.fail(rs, rank, fmt.Errorf("%w: rank %d event %d has invalid type %d", trace.ErrInvalid, rank, i, e.Type))
	}
	rs.evPrev = e.Time
	switch e.Type {
	case trace.RegionEnter:
		rs.depthRegion++
	case trace.RegionExit:
		rs.depthRegion--
		if rs.depthRegion < 0 {
			return s.fail(rs, rank, fmt.Errorf("%w: rank %d event %d: region exit without enter", trace.ErrInvalid, rank, i))
		}
	case trace.CommEnter:
		rs.depthComm++
	case trace.CommExit:
		rs.depthComm--
		if rs.depthComm < 0 {
			return s.fail(rs, rank, fmt.Errorf("%w: rank %d event %d: comm exit without enter", trace.ErrInvalid, rank, i))
		}
	}
	if err := monotone(&rs.evLast, &rs.evSeen, &e.Counters, rank, "event", i); err != nil {
		return s.fail(rs, rank, err)
	}
	s.health.Event(rank, e)
	rs.events++
	rs.lastEventTime = e.Time
	if rs.extractErr == nil {
		if err := rs.x.Push(e); err != nil {
			if s.opt.Core.Strict {
				s.failed = fmt.Errorf("core: extracting bursts: %w", err)
				return s.failed
			}
			rs.extractErr = err
			s.totalBursts -= len(rs.bursts)
			rs.bursts = nil
			rs.clouds = nil
		}
	}
	return nil
}

func (s *Session) feedSample(rs *rankState, rank int, smp trace.Sample) error {
	i := rs.smpIdx
	rs.smpIdx++
	switch {
	case smp.Time < rs.smpPrev:
		return s.fail(rs, rank, fmt.Errorf("%w: rank %d sample %d out of order", trace.ErrInvalid, rank, i))
	case int(smp.Rank) != rank:
		return s.fail(rs, rank, fmt.Errorf("%w: rank %d sample %d carries rank %d", trace.ErrInvalid, rank, i, smp.Rank))
	}
	if smp.Stack != callstack.NoStack {
		if _, ok := s.hdr.Stacks.Get(smp.Stack); !ok {
			return s.fail(rs, rank, fmt.Errorf("%w: rank %d sample %d references unknown stack %d", trace.ErrInvalid, rank, i, smp.Stack))
		}
	}
	rs.smpPrev = smp.Time
	if err := monotone(&rs.smpLast, &rs.smpSeen, &smp.Counters, rank, "sample", i); err != nil {
		return s.fail(rs, rank, err)
	}
	s.health.Sample(rank, smp)
	rs.samples++
	rs.pending = append(rs.pending, smp)
	s.pendingTot++
	if s.pendingTot > s.pendingPeak {
		s.pendingPeak = s.pendingTot
	}
	if s.pendingTot > s.opt.Window {
		s.failed = fmt.Errorf("%w: %d samples buffered, window allows %d", ErrWindow, s.pendingTot, s.opt.Window)
		return s.failed
	}
	return nil
}

// monotone is the per-stream half of trace.validateCounterMonotone.
func monotone(last *[counters.NumIDs]int64, seen *[counters.NumIDs]bool, set *counters.Set, rank int, what string, i int) error {
	for c := range set {
		v := set[c]
		if v == counters.Missing {
			continue
		}
		if v < 0 {
			return fmt.Errorf("%w: rank %d %s %d: counter %d negative (%d)", trace.ErrInvalid, rank, what, i, c, v)
		}
		if seen[c] && v < last[c] {
			return fmt.Errorf("%w: rank %d %s %d: counter %d regresses (%d after %d)", trace.ErrInvalid, rank, what, i, c, v, last[c])
		}
		last[c] = v
		seen[c] = true
	}
	return nil
}

// drainBursts moves the extractor's completed bursts into the rank's list,
// labelling them against the frozen model when one exists.
func (s *Session) drainBursts(rs *rankState) {
	for _, b := range rs.x.Drain() {
		if s.assignor != nil {
			b.Cluster = s.assignor.Assign(&b)
			s.assigned++
			if b.Cluster == cluster.Noise {
				s.noise++
			}
		}
		rs.bursts = append(rs.bursts, b)
		s.totalBursts++
	}
}

// attach replays the batch sample-linking algorithm incrementally: the head
// pending sample is placed against the first burst still accepting samples.
// Earlier than the burst: the sample can never attach (batch would have
// skipped it) — drop it, advancing the arrival index exactly as the batch
// skip loop advances its cursor. Inside: attach and project into the
// burst's cloud. At or past the end: the burst is final (streams are time-
// ordered, nothing earlier can arrive), move to the next burst. With no
// completed burst available the sample can still be dropped if it predates
// every burst the future can produce: the open burst's start when one is
// open, else the last event time.
func (s *Session) attach(rs *rankState) {
	for rs.pendHead < len(rs.pending) {
		smp := &rs.pending[rs.pendHead]
		if rs.cursor < len(rs.bursts) {
			b := &rs.bursts[rs.cursor]
			switch {
			case smp.Time < b.Start:
				rs.si++
				s.popPending(rs)
			case smp.Time < b.End:
				if b.NumSmp == 0 {
					b.FirstSmp = rs.si
				}
				b.NumSmp++
				s.observe(rs, b, smp)
				rs.si++
				s.popPending(rs)
			default:
				rs.cursor++ // burst final; retry the sample against the next
			}
			continue
		}
		horizon := rs.lastEventTime
		if t, open := rs.x.OpenStart(); open {
			horizon = t
		}
		if smp.Time >= horizon {
			return // may belong to a burst that has not closed yet
		}
		rs.si++
		s.popPending(rs)
	}
}

func (s *Session) popPending(rs *rankState) {
	rs.pendHead++
	s.pendingTot--
	// Compact once the dead prefix dominates, keeping the buffer bounded by
	// the live tail rather than the historical maximum.
	if rs.pendHead > 64 && rs.pendHead*2 > len(rs.pending) {
		n := copy(rs.pending, rs.pending[rs.pendHead:])
		rs.pending = rs.pending[:n]
		rs.pendHead = 0
	}
}

func (s *Session) observe(rs *rankState, b *trace.Burst, smp *trace.Sample) {
	if rs.extractErr != nil {
		return
	}
	if rs.clouds == nil {
		rs.clouds = make(map[folding.BurstKey]*folding.BurstCloud)
	}
	k := folding.KeyOf(b)
	c := rs.clouds[k]
	if c == nil {
		c = &folding.BurstCloud{}
		rs.clouds[k] = c
	}
	c.Observe(b, smp)
}

// BufferedRecords returns the records currently buffered (pending samples).
func (s *Session) BufferedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingTot
}

// PeakBufferedRecords returns the high-water mark of buffered records — the
// figure the bounded-memory guarantee is about.
func (s *Session) PeakBufferedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingPeak
}

// Bursts returns the computation bursts completed so far.
func (s *Session) Bursts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBursts
}

// Consume drives the session from a chunk reader until end of stream — the
// path a service upload takes, decoding and analyzing while bytes arrive.
// The reader's salvage report (if salvaging) is retained for SalvageReport.
func (s *Session) Consume(cr *trace.ChunkReader, chunkLimit int) error {
	for {
		c, err := cr.Next(chunkLimit)
		if err == io.EOF {
			s.mu.Lock()
			s.report = cr.Report()
			s.mu.Unlock()
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Feed(c); err != nil {
			return err
		}
	}
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
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	strict := s.opt.Core.Strict

	// End-of-stream validation: the unclosed-nesting checks ValidateRank
	// runs after its event scan, in its order (regions before comms).
	for r := range s.ranks {
		rs := &s.ranks[r]
		if rs.dropped {
			continue
		}
		var err error
		switch {
		case rs.depthRegion != 0:
			err = fmt.Errorf("%w: rank %d has %d unclosed regions", trace.ErrInvalid, r, rs.depthRegion)
		case rs.depthComm != 0:
			err = fmt.Errorf("%w: rank %d has %d unclosed comms", trace.ErrInvalid, r, rs.depthComm)
		default:
			continue
		}
		if strict {
			return nil, fmt.Errorf("core: validating trace: %w", err)
		}
		s.dropRank(rs, r, err)
	}

	// The static budget, from the accumulated counts (strict: the batch
	// checkBudget errors; lenient: the batch rank keep-prefix and diag).
	counts := core.StreamCounts{Events: make([]int, len(s.ranks)), Samples: make([]int, len(s.ranks))}
	for r := range s.ranks {
		counts.Events[r] = s.ranks[r].events
		counts.Samples[r] = s.ranks[r].samples
	}
	keep, budgetDiag, err := core.StreamBudget(counts, s.opt.Core.Budget, strict)
	if err != nil {
		return nil, err
	}

	// Finish extraction and settle the remaining samples.
	for r := 0; r < keep; r++ {
		rs := &s.ranks[r]
		if rs.dropped || rs.extractErr != nil {
			continue
		}
		if err := rs.x.Finish(); err != nil {
			if strict {
				return nil, fmt.Errorf("core: extracting bursts: %w", err)
			}
			rs.extractErr = err
			s.totalBursts -= len(rs.bursts)
			rs.bursts = nil
			rs.clouds = nil
			continue
		}
		s.drainBursts(rs)
		s.attach(rs)
		// Anything still pending falls past the last burst: batch would
		// never attach it either.
		s.pendingTot -= len(rs.pending) - rs.pendHead
		rs.pending = nil
		rs.pendHead = 0
	}

	// Assemble the prior diagnostics in batch stage order: sanitize,
	// validation drops, health, budget, extraction.
	rec := core.NewRecorder(s.ctx)
	for _, d := range s.preDiags {
		rec.Add(d)
	}
	for r := range s.ranks {
		if rs := &s.ranks[r]; rs.dropped {
			rec.Addf("validate", core.KindRankDropped, core.SeverityError, r, -1, "rank unrepairable, dropped: %v", rs.dropErr)
		}
	}
	s.health.Report(rec)
	if budgetDiag != nil {
		rec.Add(*budgetDiag)
	}
	for r := 0; r < keep; r++ {
		if rs := &s.ranks[r]; !rs.dropped && rs.extractErr != nil {
			rec.Addf("extract", core.KindExtractFailed, core.SeverityError, r, -1, "burst extraction failed, rank dropped: %v", rs.extractErr)
		}
	}

	var bursts []trace.Burst
	clouds := make(map[folding.BurstKey]*folding.BurstCloud)
	for r := 0; r < keep; r++ {
		rs := &s.ranks[r]
		if rs.dropped || rs.extractErr != nil {
			continue
		}
		bursts = append(bursts, rs.bursts...)
		for k, c := range rs.clouds {
			clouds[k] = c
		}
	}

	return core.AnalyzeBursts(s.ctx, core.BurstsInput{
		App:      s.hdr.App,
		NumRanks: keep,
		Symbols:  s.hdr.Symbols,
		Stacks:   s.hdr.Stacks,
		Bursts:   bursts,
		Project:  folding.CloudProjector(clouds),
		Prior:    rec.Diagnostics(),
	}, s.opt.Core)
}
