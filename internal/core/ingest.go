package core

import (
	"context"
	"fmt"
	"slices"

	"phasefold/internal/callstack"
	"phasefold/internal/folding"
	"phasefold/internal/obs"
	"phasefold/internal/par"
	"phasefold/internal/trace"
)

// Ingest is the pipeline's front half, the one path every record takes on
// its way to the tail. Per rank it runs the record validator, the health
// checks, the burst extractor and the sample linker in one pass; Done
// settles the end-of-stream checks, the static budget and the diagnostics,
// then runs the tail.
//
// An Ingest takes exactly one input. FeedTrace ingests a resident trace
// (batch Analyze is FeedTrace + Done): ranks fan out under the extract
// stage guard, a rank that fails validation is repaired alone on its
// worker (lenient mode), and folds project straight out of the records. Feed
// ingests record chunks as they arrive (the streaming session): each
// burst's folded observations are built as its samples link, since the
// records do not stay. The model is the same either way.
//
// Ingest is not safe for concurrent use.
type Ingest struct {
	app    string
	syms   *callstack.SymbolTable
	stacks *callstack.Interner
	opt    Options

	ranks  []rankIngest
	health []healthRank

	resident *trace.Trace      // FeedTrace's input as a view whose repaired slots are clones
	repairs  [][]trace.Problem // per rank: the problems its resident repair fixed
	timedOut bool              // the extract stage guard expired during the resident pass
	chunked  bool              // Feed was called
	failed   error
	label    func(*trace.Burst)

	buffered, peak int // samples waiting for a burst to close (chunked)
}

// rankIngest is one rank's front-half state.
type rankIngest struct {
	v       trace.RankValidator
	x       *trace.Extractor // nil once extraction failed or never started
	h       *healthRank
	clouds  map[folding.BurstKey]*folding.BurstCloud
	observe func(*trace.Burst, *trace.Sample) // the cloud sink; nil when resident

	lastBurst *trace.Burst // observeCloud's last burst and its cloud
	lastCloud *folding.BurstCloud

	events, samples int // records ingested
	labeled         int // bursts handed to the labeler

	closed     bool
	dropErr    error // the rank failed validation and was dropped
	extractErr error // extraction failed; the rank contributes no bursts
	stopped    error // the extract stage guard stopped the rank before it started
}

// NewIngest returns the front half for a trace of nRanks ranks, analyzed
// under opt; syms and stacks are the trace's resolution tables.
func NewIngest(app string, nRanks int, syms *callstack.SymbolTable, stacks *callstack.Interner, opt Options) *Ingest {
	in := &Ingest{app: app, syms: syms, stacks: stacks, opt: opt,
		ranks: make([]rankIngest, nRanks), health: make([]healthRank, nRanks)}
	for r := range in.ranks {
		in.resetRank(r, true)
	}
	return in
}

// resetRank gives rank r fresh state; extract selects whether its bursts
// are extracted (validation and health checks always run).
func (in *Ingest) resetRank(r int, extract bool) {
	in.health[r] = newHealthRank()
	in.ranks[r] = rankIngest{v: trace.NewRankValidator(r, in.stacks), h: &in.health[r]}
	if extract {
		in.ranks[r].x = trace.NewExtractor(int32(r), trace.BurstOptions{MinDuration: in.opt.MinBurstDuration})
	}
}

// SetLabeler installs a function that sees every burst Feed completes, in
// completion order — the streaming session's provisional labelling.
func (in *Ingest) SetLabeler(label func(*trace.Burst)) { in.label = label }

// Feed ingests one chunk of a rank's records, in per-rank order (see
// trace.RankValidator); chunks of different ranks may interleave. The
// ingest keeps the chunk's events until the rank's samples pass them, so
// the caller must not modify them afterwards. A rank with an invalid
// record is dropped, and a rank whose extraction fails contributes no
// bursts; in strict mode either fails the ingest.
func (in *Ingest) Feed(c *trace.Chunk) error {
	switch {
	case in.failed != nil:
		return in.failed
	case in.resident != nil:
		return fmt.Errorf("core: Feed after FeedTrace")
	case c.Rank < 0 || c.Rank >= len(in.ranks):
		return fmt.Errorf("%w: chunk for rank %d of %d", trace.ErrInvalid, c.Rank, len(in.ranks))
	}
	if !in.chunked {
		in.chunked = true
		for r := range in.ranks {
			in.ranks[r].observe = in.ranks[r].observeCloud
		}
	}
	ri := &in.ranks[c.Rank]
	in.feedRank(ri, c.Events, c.Samples)
	if in.opt.Strict {
		switch {
		case ri.dropErr != nil:
			in.failed = fmt.Errorf("core: validating trace: %w", ri.dropErr)
		case ri.extractErr != nil:
			in.failed = fmt.Errorf("core: extracting bursts: %w", ri.extractErr)
		}
	}
	return in.failed
}

// feedRank runs a stretch of a rank's records through the front half. The
// validator sees every record, so its verdict is ValidateRank's; once it
// fails, the rank is dropped and nothing else runs.
func (in *Ingest) feedRank(ri *rankIngest, evs []trace.Event, smps []trace.Sample) {
	ri.v.Events(evs)
	if in.live(ri) {
		for i := range evs {
			ri.h.event(&evs[i])
			if ri.x != nil {
				if err := ri.x.Push(&evs[i]); err != nil {
					in.failExtract(ri, err)
				}
			}
		}
		ri.events += len(evs)
		if ri.x != nil {
			in.drain(ri)
			n := ri.x.Pending()
			ri.x.Relink(ri.observe)
			in.count(n, ri.x.Pending())
		}
	}
	ri.v.Samples(smps)
	if in.live(ri) {
		for i := range smps {
			ri.h.sample(&smps[i])
			if ri.x != nil {
				// A sample counts as buffered from its arrival until it links.
				n := ri.x.Pending()
				in.count(n, n+1)
				ri.x.Link(&smps[i], ri.observe)
				in.count(n+1, ri.x.Pending())
			}
		}
		ri.samples += len(smps)
	}
}

// live reports whether the rank is still ingested, dropping it when the
// validator just failed it.
func (in *Ingest) live(ri *rankIngest) bool {
	if err := ri.v.Err(); err != nil && ri.dropErr == nil {
		in.drop(ri, err)
	}
	return ri.dropErr == nil
}

// count moves the buffered-sample tally from before to after. Resident
// ranks ingest concurrently and keep no tally.
func (in *Ingest) count(before, after int) {
	if in.chunked {
		in.buffered += after - before
		in.peak = max(in.peak, in.buffered)
	}
}

// drain hands the rank's newly completed bursts to the labeler.
func (in *Ingest) drain(ri *rankIngest) {
	if in.label == nil || !in.chunked {
		return
	}
	for bursts := ri.x.Bursts(); ri.labeled < len(bursts); ri.labeled++ {
		in.label(&bursts[ri.labeled])
	}
}

// drop voids a rank that failed validation: its records leave every
// accumulator, as if the rank had carried none.
func (in *Ingest) drop(ri *rankIngest, err error) {
	ri.dropErr = err
	ri.events, ri.samples = 0, 0
	*ri.h = newHealthRank()
	in.failExtract(ri, nil)
}

// failExtract stops the rank's extraction; err, when not nil, is why.
func (in *Ingest) failExtract(ri *rankIngest, err error) {
	if err != nil {
		ri.extractErr = err
	}
	if ri.x != nil {
		in.count(ri.x.Pending(), 0)
		ri.x = nil
	}
	ri.clouds, ri.lastBurst, ri.lastCloud = nil, nil, nil
}

// observeCloud is the chunked path's cloud sink: it projects each linked
// sample into its burst's cloud. A burst's samples link one after another,
// so the last cloud is looked up once per burst.
func (ri *rankIngest) observeCloud(b *trace.Burst, s *trace.Sample) {
	if b != ri.lastBurst {
		if ri.clouds == nil {
			ri.clouds = make(map[folding.BurstKey]*folding.BurstCloud)
		}
		k := folding.KeyOf(b)
		if ri.lastCloud = ri.clouds[k]; ri.lastCloud == nil {
			ri.lastCloud = &folding.BurstCloud{}
			ri.clouds[k] = ri.lastCloud
		}
		ri.lastBurst = b
	}
	ri.lastCloud.Observe(b, s)
}

// closeRank runs a rank's end-of-stream checks: the validator's (unclosed
// nesting, the last counter regressions), then the extractor's.
func (in *Ingest) closeRank(ri *rankIngest) {
	if ri.closed {
		return
	}
	ri.closed = true
	if err := ri.v.Finish(); err != nil {
		in.drop(ri, err) // Finish's verdict is ValidateRank's
		return
	}
	if ri.x != nil {
		n := ri.x.Pending()
		if err := ri.x.Finish(); err != nil {
			in.failExtract(ri, err)
			return
		}
		in.count(n, 0)
		in.drain(ri)
	}
}

// residentBlock bounds the records a resident rank ingests between
// cancellation checks; a block stays in cache between the validator's pass
// and the extractor's.
const residentBlock = 1024

// FeedTrace ingests a resident trace, fanning ranks out over
// opt.Parallelism workers under the extract stage guard. Rank 0 is always
// extracted; a later rank the expired stage guard stops is still validated
// and health-checked but not extracted, and Done keeps the extracted
// prefix. In lenient mode a rank that fails validation is repaired on its
// worker; strict mode fails in Done. The trace is never modified.
func (in *Ingest) FeedTrace(ctx context.Context, tr *trace.Trace) error {
	if in.chunked || in.resident != nil {
		return fmt.Errorf("core: FeedTrace on an ingest already fed")
	}
	if tr.NumRanks() != len(in.ranks) {
		return fmt.Errorf("core: trace has %d ranks, ingest expects %d (%w)", tr.NumRanks(), len(in.ranks), trace.ErrInvalid)
	}
	view := *tr
	view.Ranks = slices.Clone(tr.Ranks)
	in.resident, in.repairs = &view, make([][]trace.Problem, len(in.ranks))
	ectx, espan, endExtract := startStage(ctx, spanExtract)
	defer endExtract()
	sctx, cancel := stageContext(ectx, in.opt.Budget)
	defer cancel()
	workers := min(par.N(in.opt.Parallelism), len(in.ranks))
	_, wspans := workerSpans(ectx, "extract_worker", workers)
	par.ForEach(workers, len(in.ranks), func(worker, r int) {
		stopped := sctx.Err()
		if r == 0 {
			stopped = nil
		}
		in.ingestResidentRank(ctx, r, stopped == nil)
		in.ranks[r].stopped = stopped
		wspans[worker].AddInt("ranks", 1)
		wspans[worker].AddInt("bursts", int64(len(in.bursts(r))))
	})
	for _, s := range wspans {
		s.End()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	in.timedOut = sctx.Err() != nil
	var records int64
	for r := range in.ranks {
		records += int64(in.ranks[r].events + in.ranks[r].samples)
	}
	espan.SetAttr("ranks", int64(len(in.ranks)))
	espan.SetAttr("bursts", int64(in.NumBursts()))
	recordStageThroughput(ctx, espan, spanExtract, records)
	return nil
}

// ingestResidentRank runs rank r of the resident trace through the front
// half. In lenient mode a rank that fails validation is repaired here: its
// slot in the view is replaced by a sanitized clone, which is ingested in
// its place, and the rank stays dropped only if the clone fails too. A
// panic drops the rank's extraction only.
func (in *Ingest) ingestResidentRank(ctx context.Context, r int, extract bool) {
	repaired := false
	run := func(extract bool) {
		if !in.feedResidentRank(ctx, r, extract) || in.ranks[r].dropErr == nil || in.opt.Strict || repaired {
			return
		}
		repaired = true
		if rd := in.resident.Ranks[r]; rd != nil {
			in.resident.Ranks[r] = &trace.RankData{Rank: rd.Rank, Events: slices.Clone(rd.Events), Samples: slices.Clone(rd.Samples)}
		}
		in.repairs[r] = in.resident.SanitizeRank(r)
		in.feedResidentRank(ctx, r, extract)
	}
	if !extract {
		run(false)
		return
	}
	if err := capture(fmt.Sprintf("extract rank %d", r), func() error {
		if testHookExtract != nil {
			testHookExtract(r)
		}
		run(true)
		return nil
	}); err != nil {
		run(false)
		in.ranks[r].extractErr = err
	}
}

// feedResidentRank runs rank r's slot of the resident view through the
// front half from fresh state, polling ctx between blocks of records; it
// reports whether the rank ran to its end.
func (in *Ingest) feedResidentRank(ctx context.Context, r int, extract bool) bool {
	in.resetRank(r, extract)
	ri := &in.ranks[r]
	rd, err := in.resident.RankSlot(r)
	if err != nil {
		in.drop(ri, err)
		ri.closed = true
		return true
	}
	for lo := 0; lo < len(rd.Events); lo += residentBlock {
		if ctx.Err() != nil {
			return false
		}
		in.feedRank(ri, rd.Events[lo:min(lo+residentBlock, len(rd.Events))], nil)
	}
	for lo := 0; lo < len(rd.Samples); lo += residentBlock {
		if ctx.Err() != nil {
			return false
		}
		in.feedRank(ri, nil, rd.Samples[lo:min(lo+residentBlock, len(rd.Samples))])
	}
	in.closeRank(ri)
	return true
}

// Done settles the ingest and runs the pipeline tail — structure
// detection, folding, piece-wise linear fitting, grading — under the run's
// analyze span. The ingest cannot be used afterwards.
func (in *Ingest) Done(ctx context.Context) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, aspan := obs.StartSpan(ctx, spanAnalyze)
	m, err := in.model(ctx)
	return m, endAnalysis(ctx, aspan, m, err)
}

// model settles the front half and runs the tail.
func (in *Ingest) model(ctx context.Context) (*Model, error) {
	if in.failed != nil {
		return nil, in.failed
	}
	ds := newDiagSink(ctx)
	tin, err := in.settle(ctx, ds)
	if err != nil {
		return nil, err
	}
	return analyzeTail(ctx, tin, in.opt, ds)
}

// settle is the prepare stage. It closes every rank, applies the static
// budget, and records the front half's diagnostics in stage order —
// sanitize, validate, health, budget, extract — before handing the kept
// ranks' bursts to the tail.
func (in *Ingest) settle(ctx context.Context, ds *diagSink) (tailInput, error) {
	_, pspan, endPrepare := startStage(ctx, spanPrepare)
	defer endPrepare()
	strict := in.opt.Strict
	for r := range in.ranks {
		in.closeRank(&in.ranks[r])
		if err := in.ranks[r].dropErr; err != nil && strict {
			return tailInput{}, fmt.Errorf("core: validating trace: %w", err)
		}
	}
	if !strict {
		for _, probs := range in.repairs {
			for _, p := range probs {
				ds.add("sanitize", KindRepair, SeverityWarn, p.Rank, -1, "%s: %d records (%s)", p.Kind, p.Count, p.Detail)
			}
		}
		for r := range in.ranks {
			if err := in.ranks[r].dropErr; err != nil {
				ds.add("validate", KindRankDropped, SeverityError, r, -1, "rank unrepairable, dropped: %v", err)
			}
		}
		reportHealth(in.health, ds)
	}
	keep, err := in.budget(ds)
	if err != nil {
		return tailInput{}, err
	}
	n, records := 0, int64(0)
	for r := 0; r < keep; r++ {
		records += int64(in.ranks[r].events + in.ranks[r].samples)
		n += len(in.bursts(r))
	}
	bursts := make([]trace.Burst, 0, n)
scan:
	for r := 0; r < keep; r++ {
		ri := &in.ranks[r]
		switch {
		case ri.stopped != nil && strict:
			return tailInput{}, fmt.Errorf("%w: extraction exceeded stage timeout", ErrBudget)
		case ri.stopped != nil:
			ds.add("budget", KindBudgetExceeded, SeverityWarn, r, -1,
				"budget_exceeded:extract: stage timeout after %d of %d ranks", r, keep)
			break scan
		case ri.dropErr != nil:
		case ri.extractErr != nil && strict:
			return tailInput{}, fmt.Errorf("core: extracting bursts: %w", ri.extractErr)
		case ri.extractErr != nil:
			ds.add("extract", KindExtractFailed, SeverityError, r, -1, "burst extraction failed, rank dropped: %v", ri.extractErr)
		default:
			bursts = append(bursts, ri.x.Bursts()...)
		}
	}
	if strict && in.timedOut {
		return tailInput{}, fmt.Errorf("%w: extraction exceeded stage timeout", ErrBudget)
	}
	pspan.SetAttr("ranks", int64(keep))
	pspan.SetAttr("records", records)
	return tailInput{app: in.app, nRanks: keep, syms: in.syms, stacks: in.stacks, bursts: bursts, project: in.Projector()}, nil
}

// budget applies the static budget limits to the ranks' record counts.
// Strict mode fails with an error wrapping ErrBudget. Lenient mode keeps
// the longest rank prefix that fits — at least one rank; rank granularity
// keeps every per-rank invariant intact, and an SPMD run's ranks are
// interchangeable — and records a diagnostic when that trims anything.
func (in *Ingest) budget(ds *diagSink) (keep int, err error) {
	b, nRanks := in.opt.Budget, len(in.ranks)
	limit := nRanks
	if b.MaxRanks > 0 {
		limit = min(limit, b.MaxRanks)
	}
	var records, allRecords int
	var bytes, allBytes int64
	for r := range in.ranks {
		rn := in.ranks[r].events + in.ranks[r].samples
		rb := int64(in.ranks[r].events)*trace.EventBytes + int64(in.ranks[r].samples)*trace.SampleBytes
		allRecords, allBytes = allRecords+rn, allBytes+rb
		fits := (b.MaxRecords <= 0 || records+rn <= b.MaxRecords) && (b.MaxBytes <= 0 || bytes+rb <= b.MaxBytes)
		if keep == r && r < limit && (fits || keep == 0) {
			records, bytes, keep = records+rn, bytes+rb, keep+1
		}
	}
	if in.opt.Strict {
		switch {
		case b.MaxRanks > 0 && nRanks > b.MaxRanks:
			return 0, fmt.Errorf("%w: trace has %d ranks, budget allows %d", ErrBudget, nRanks, b.MaxRanks)
		case b.MaxRecords > 0 && allRecords > b.MaxRecords:
			return 0, fmt.Errorf("%w: trace has %d records, budget allows %d", ErrBudget, allRecords, b.MaxRecords)
		case b.MaxBytes > 0 && allBytes > b.MaxBytes:
			return 0, fmt.Errorf("%w: trace holds ~%d resident bytes, budget allows %d", ErrBudget, allBytes, b.MaxBytes)
		}
		return nRanks, nil
	}
	if keep < nRanks {
		stage := "ranks"
		switch {
		case b.MaxRanks > 0 && keep == b.MaxRanks:
		case b.MaxRecords > 0 && records <= b.MaxRecords:
			stage = "records"
		default:
			stage = "memory"
		}
		ds.add("budget", KindBudgetExceeded, SeverityWarn, -1, -1,
			"budget_exceeded:%s: analyzing first %d of %d ranks (%d records kept)", stage, keep, nRanks, records)
	}
	return keep, nil
}

// bursts returns rank r's bursts completed so far (none once the rank was
// dropped or its extraction failed).
func (in *Ingest) bursts(r int) []trace.Burst {
	if x := in.ranks[r].x; x != nil {
		return x.Bursts()
	}
	return nil
}

// EachBurst calls fn on every burst completed so far, in rank order; fn may
// relabel the burst.
func (in *Ingest) EachBurst(fn func(*trace.Burst)) {
	for r := range in.ranks {
		bursts := in.bursts(r)
		for i := range bursts {
			fn(&bursts[i])
		}
	}
}

// NumBursts returns the bursts completed so far across ranks.
func (in *Ingest) NumBursts() int {
	n := 0
	for r := range in.ranks {
		n += len(in.bursts(r))
	}
	return n
}

// Buffered returns the samples waiting for a burst to close.
func (in *Ingest) Buffered() int { return in.buffered }

// Peak returns the high-water mark of Buffered, counting each sample from
// its arrival.
func (in *Ingest) Peak() int { return in.peak }

// Projector returns the folded-observation source of the bursts ingested so
// far: the resident records, or the clouds built as samples linked, looked
// up in the map of the rank a burst's key names.
func (in *Ingest) Projector() folding.Projector {
	if in.resident != nil {
		return folding.TraceProjector(in.resident)
	}
	return folding.CloudProjector(func(k folding.BurstKey) *folding.BurstCloud {
		return in.ranks[k.Rank].clouds[k]
	})
}
