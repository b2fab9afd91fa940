package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"phasefold/internal/callstack"
	"phasefold/internal/sim"
)

// Chunk is a batch of decoded records from a single rank, in stream order.
// The streaming session consumes chunks; a chunk never spans ranks, so the
// per-rank time order the analysis depends on is preserved by construction.
type Chunk struct {
	Rank    int
	Events  []Event
	Samples []Sample
}

// Records returns the record count of the chunk.
func (c *Chunk) Records() int { return len(c.Events) + len(c.Samples) }

// ChunkReader is the binary trace parser: the header (app name, symbol and
// stack tables, rank count) is decoded eagerly by NewChunkReader, and Next
// then yields bounded record chunks without ever materializing a whole rank
// section as records. The stream is read through one 64 KiB window and the
// current section through a 4 KiB window refilled from it, so memory stays
// bounded by the chunk limit plus those windows — this is the reader behind
// Stream sessions analyzing traces larger than memory. Decode drives the
// same header, section and record code, so both produce bit-identical
// records.
//
// Salvage mode keeps every record decoded before a damage point; a damaged
// section is skipped via its length prefix and later ranks still decode.
// Salvage here does not run Sanitize over the recovered records (there is no
// resident trace to repair); the streaming session's own per-rank
// validation takes that role. Header damage is never salvageable.
type ChunkReader struct {
	ctx      context.Context
	opt      DecodeOptions
	in       reader // the stream: header, section prefixes, section bytes
	app      string
	syms     *callstack.SymbolTable
	stacks   *callstack.Interner
	stackIDs []callstack.StackID
	nRanks   int

	section *io.LimitedReader // the current rank's section bytes (streamed reads only)
	secWin  []byte            // the streamed section's window, reused across ranks
	cur     *rankDecoder      // the current rank's record loop; nil between sections
	rank    int               // current rank; nRanks when exhausted

	counts []recordCount // per rank: records yielded
	log    salvageLog
	done   bool
}

// The window sizes: the whole stream's (header, section prefixes, and the
// bytes sliced or streamed off it), and a streamed section's, refilled from
// the stream's.
const (
	streamWindow  = 1 << 16
	sectionWindow = 1 << 12
)

// recordCount is how many records of one rank survived a read.
type recordCount struct{ events, samples int }

// NewChunkReader reads the stream header from r and returns a reader
// positioned at the first rank's records. Errors wrap the package sentinels
// exactly as Decode's do.
func NewChunkReader(ctx context.Context, rd io.Reader, opt DecodeOptions) (*ChunkReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cr := &ChunkReader{ctx: ctx, opt: opt, log: salvageLog{salvage: opt.Salvage}}
	cr.in = streamReader(ctx, rd, make([]byte, 0, streamWindow))
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(&cr.in, magic); err != nil {
		return nil, fmt.Errorf("reading magic: %w", classifyRead(err))
	}
	if string(magic) != binaryMagic {
		if string(magic) == "PFT1" {
			return nil, fmt.Errorf("%w: %q is the retired unframed layout, which is no longer read; re-encode the trace as %q",
				ErrBadMagic, magic, binaryMagic)
		}
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic)
	}
	if err := cr.decodeHeader(); err != nil {
		return nil, err
	}
	cr.counts = make([]recordCount, cr.nRanks)
	return cr, nil
}

// decodeHeader reads everything up to the rank sections: app name, symbol
// table, stack table, and the rank count. Header damage is never
// salvageable — the tables interpret every record downstream.
func (cr *ChunkReader) decodeHeader() error {
	r := &cr.in
	cr.app = r.str()
	cr.syms = callstack.NewSymbolTable()
	nRoutines := r.count("routine", maxTableCount)
	for i := 0; i < nRoutines && r.poll(); i++ {
		rt := callstack.Routine{
			Name:      r.str(),
			File:      r.str(),
			StartLine: int(r.uvarint()),
			EndLine:   int(r.uvarint()),
		}
		if r.err == nil {
			// Define panics on malformed routines (a programming error
			// in-process); from the wire, malformation is corruption.
			if cerr := rt.Check(); cerr != nil {
				r.err = fmt.Errorf("%w: routine %d: %v", ErrCorrupt, i, cerr)
				break
			}
			cr.syms.Define(rt)
		}
	}
	cr.stacks = callstack.NewInterner()
	nStacks := r.count("stack", maxTableCount)
	cr.stackIDs = make([]callstack.StackID, 0, min(nStacks, 1<<16))
	var st callstack.Stack // scratch: Intern keeps a copy
	for i := 0; i < nStacks && r.poll(); i++ {
		nf := r.count("frame", maxStackFrames)
		if r.err != nil {
			break
		}
		st = st[:0]
		for j := 0; j < nf && r.err == nil; j++ {
			st = append(st, callstack.Frame{
				Routine: callstack.RoutineID(r.varint()),
				Line:    int(r.uvarint()),
			})
		}
		if r.err != nil {
			break
		}
		cr.stackIDs = append(cr.stackIDs, cr.stacks.Intern(st))
	}
	cr.nRanks = r.count("rank", maxTableCount)
	if r.err != nil {
		return classifyRead(r.err)
	}
	if cr.nRanks == 0 {
		return fmt.Errorf("%w: decoded trace has no ranks", ErrNoRanks)
	}
	return nil
}

// App returns the application name from the header.
func (cr *ChunkReader) App() string { return cr.app }

// NumRanks returns the rank count from the header.
func (cr *ChunkReader) NumRanks() int { return cr.nRanks }

// Symbols returns the decoded symbol table.
func (cr *ChunkReader) Symbols() *callstack.SymbolTable { return cr.syms }

// Stacks returns the decoded stack interner.
func (cr *ChunkReader) Stacks() *callstack.Interner { return cr.stacks }

// Skeleton returns a record-free trace carrying the header (app name, rank
// count, symbol tables) — the shape Model.Export needs to render a streamed
// analysis identically to a batch one.
func (cr *ChunkReader) Skeleton() (*Trace, error) {
	return NewChecked(cr.app, cr.nRanks, cr.syms, cr.stacks)
}

// Report describes what a salvage-mode read recovered; it is meaningful
// once Next has returned io.EOF and nil before that (and always nil in
// strict mode, mirroring Decode). Problems lists only cleared stack
// references: ChunkReader streams records through without retaining a
// trace to sanitize.
func (cr *ChunkReader) Report() *SalvageReport {
	if !cr.opt.Salvage || !cr.done {
		return nil
	}
	rep, _ := cr.log.finish(cr.counts, nil)
	return rep
}

// sectionLen reads the next rank's section length prefix.
func (cr *ChunkReader) sectionLen() (int64, error) {
	r := &cr.in
	n := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	if n > maxSectionBytes {
		return 0, fmt.Errorf("%w: rank %d section claims %d bytes, exceeds sanity limit %d",
			ErrCorrupt, cr.rank, n, uint64(maxSectionBytes))
	}
	return int64(n), nil
}

// sliceSection copies the next rank's section into a pooled buffer, for a
// decoder that drains sections concurrently, and reports how many of its
// declared bytes the stream never delivered. The buffer grows only as bytes
// actually arrive, so a hostile length prefix never becomes an up-front
// allocation. A stream that ends inside the section returns the prefix it
// carried together with the error; the prefix still decodes.
func (cr *ChunkReader) sliceSection() (buf *bytes.Buffer, missing int64, err error) {
	n, err := cr.sectionLen()
	if err != nil {
		return nil, 0, err
	}
	buf = getSectionBuf()
	m, err := buf.ReadFrom(io.LimitReader(&cr.in, n))
	if err == nil && m < n {
		err = io.ErrUnexpectedEOF
	}
	cr.rank++
	return buf, n - m, err
}

// sectionDecoder starts the record loop over a section sliceSection
// copied, the section's bytes being the reader's window. Call it on the
// goroutine that drains the section: the reader's position is written per
// varint, and readers of different ranks allocated side by side would
// share cache lines across workers.
func (cr *ChunkReader) sectionDecoder(rank int, buf *bytes.Buffer, missing int64) *rankDecoder {
	return &rankDecoder{r: slicedReader(cr.ctx, buf.Bytes()), cr: cr, rank: rank, missing: missing}
}

// rankDecoder is the record loop of one rank section — event count, events,
// sample count, samples — resumable at any record, so a section drains in
// bounded chunks or all at once.
type rankDecoder struct {
	r        reader
	cr       *ChunkReader // header tables and options; read-only here
	missing  int64        // declared bytes a cut stream never delivered (sliced)
	rank     int
	phase    int // 0 = event count, 1 = events, 2 = samples
	left     int // records left in the current phase
	prev     sim.Time
	dangling int // stack references cleared (salvage mode)
}

// unread returns how many of the section's declared bytes the records have
// not consumed.
func (d *rankDecoder) unread() int64 {
	rest := int64(len(d.r.buf) - d.r.off)
	if d.r.src == nil { // sliced off the stream
		return rest + d.missing
	}
	return rest + d.cr.section.N
}

// next appends up to limit records of the section to c, sizing an empty
// destination from the decoded counts (at most 1<<20 records up front) and
// decoding each record in place in its slot. It reports whether the
// section is finished, after checking its framing. On error the records
// decoded before the damage stay in c — that prefix is exactly what
// salvage keeps.
func (d *rankDecoder) next(c *Chunk, limit int) (bool, error) {
	r := &d.r
	for limit > 0 {
		switch d.phase {
		case 0:
			d.left = r.count("event", maxDecodeCount)
			if r.err != nil {
				return false, r.err
			}
			d.prev = 0
			d.phase = 1
		case 1:
			if c.Events == nil {
				c.Events = make([]Event, 0, min(d.left, limit, 1<<20))
			}
			n := min(d.left, limit)
			for range n {
				var e *Event
				if c.Events, e = extend(c.Events); !d.event(e) {
					c.Events = c.Events[:len(c.Events)-1]
					return false, r.err
				}
			}
			d.left -= n
			limit -= n
			if d.left > 0 {
				return false, nil // chunk full
			}
			d.left = r.count("sample", maxDecodeCount)
			if r.err != nil {
				return false, r.err
			}
			d.prev = 0
			d.phase = 2
		case 2:
			if c.Samples == nil {
				c.Samples = make([]Sample, 0, min(d.left, limit, 1<<20))
			}
			n := min(d.left, limit)
			for range n {
				var s *Sample
				if c.Samples, s = extend(c.Samples); !d.sample(s) {
					c.Samples = c.Samples[:len(c.Samples)-1]
					return false, r.err
				}
			}
			d.left -= n
			limit -= n
			if d.left > 0 {
				return false, nil // chunk full
			}
			// Leftover bytes mean the length prefix and the content
			// disagree — unless the stream ended inside the section,
			// which is truncation whichever reader sees it.
			if rest := d.unread(); rest > 0 {
				if n, _ := io.CopyN(io.Discard, r, rest); n < rest {
					return false, io.ErrUnexpectedEOF
				}
				return false, fmt.Errorf("%w: rank %d section carries %d trailing bytes", ErrCorrupt, d.rank, rest)
			}
			return true, nil
		}
	}
	return false, nil
}

// extend lengthens s by one slot, growing it as append would, and returns
// the slot for a record to be decoded into.
func extend[T any](s []T) ([]T, *T) {
	if len(s) == cap(s) {
		s = slices.Grow(s, 1)
	}
	s = s[:len(s)+1]
	return s, &s[len(s)-1]
}

// event reads one event record into e. It returns false on a reader error
// or cancellation; the partially-read record must then be discarded.
func (d *rankDecoder) event(e *Event) bool {
	r := &d.r
	if !r.poll() {
		return false
	}
	d.prev += sim.Time(r.uvarint())
	e.Time = d.prev
	e.Rank = int32(d.rank)
	e.Type = EventType(r.uvarint())
	e.Value = r.varint()
	e.Group = uint8(r.uvarint())
	r.counterSet(&e.Counters)
	return r.err == nil
}

// sample reads one sample record into s, mapping its stack reference
// through the header's stack table. A dangling reference is an error in
// strict mode and is cleared (and counted) in salvage mode.
func (d *rankDecoder) sample(s *Sample) bool {
	r := &d.r
	if !r.poll() {
		return false
	}
	d.prev += sim.Time(r.uvarint())
	sid := callstack.StackID(r.varint())
	if ids := d.cr.stackIDs; sid != callstack.NoStack && r.err == nil {
		if sid < 0 || int(sid) >= len(ids) {
			if !d.cr.opt.Salvage {
				r.err = fmt.Errorf("%w: sample references stack %d of %d", ErrCorrupt, sid, len(ids))
				return false
			}
			d.dangling++
			sid = callstack.NoStack
		} else {
			sid = ids[sid]
		}
	}
	s.Time = d.prev
	s.Rank = int32(d.rank)
	s.Stack = sid
	s.Group = uint8(r.uvarint())
	r.counterSet(&s.Counters)
	return r.err == nil
}

// salvageLog is the salvage bookkeeping of one read: the first damage
// absorbed and the stack references cleared.
type salvageLog struct {
	salvage  bool
	damage   error
	dangling int
}

// absorb classifies a decode error and returns it when it must end the
// read: always in strict mode, and for cancellation, which says nothing
// about the input. In salvage mode it records the first damage instead and
// returns nil.
func (l *salvageLog) absorb(err error) error {
	err = classifyRead(err)
	if err == nil || !l.salvage || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if l.damage == nil {
		l.damage = err
	}
	return nil
}

// finish assembles the SalvageReport from what survived in each rank plus
// the repairs made on top of the read. A damaged read that kept no record
// at all also returns an error; a stream that legitimately encodes no
// records is not a failure.
func (l *salvageLog) finish(counts []recordCount, repairs []Problem) (*SalvageReport, error) {
	rep := &SalvageReport{Err: l.damage}
	if l.dangling > 0 {
		rep.Problems = append(rep.Problems, Problem{
			Rank: -1, Kind: ProblemDanglingStack, Count: l.dangling,
			Detail: "samples referencing undefined stacks cleared",
		})
	}
	rep.Problems = append(rep.Problems, repairs...)
	for _, n := range counts {
		rep.Events += n.events
		rep.Samples += n.samples
		if rep.Err != nil && n.events+n.samples == 0 {
			rep.RanksLost++
		}
	}
	if rep.Err != nil && rep.Events == 0 && rep.Samples == 0 {
		return rep, fmt.Errorf("nothing salvageable: %w", rep.Err)
	}
	return rep, nil
}

// fail handles damage in the streamed read: strict mode (or cancellation)
// returns the classified error; salvage mode records the first damage and
// skips to the next rank section when this one can be drained whole.
func (cr *ChunkReader) fail(err error) error {
	if err := cr.log.absorb(err); err != nil {
		cr.done = true
		return err
	}
	if cr.cur != nil {
		// The section length prefix bounds the damage: drain the rest of
		// this rank's section and move on.
		_, derr := io.Copy(io.Discard, &cr.cur.r)
		cr.endSection()
		if derr == nil && cr.section.N == 0 {
			return nil
		}
	}
	// A short section or a stream-level error: nothing after this point is
	// decodable.
	cr.rank = cr.nRanks
	return nil
}

// endSection closes the current rank's record loop and moves to the next.
func (cr *ChunkReader) endSection() {
	cr.log.dangling += cr.cur.dangling
	cr.cur = nil
	cr.rank++
}

// Next decodes up to limit records (limit <= 0 means 4096) of the current
// rank and returns them. A chunk never mixes ranks; empty ranks are skipped.
// The end of the stream returns io.EOF. In salvage mode damage is absorbed
// (inspect Report after EOF); cancellation is never absorbed.
func (cr *ChunkReader) Next(limit int) (Chunk, error) {
	if limit <= 0 {
		limit = 4096
	}
	for {
		if cr.done || cr.rank >= cr.nRanks {
			cr.done = true
			if _, err := cr.log.finish(cr.counts, nil); err != nil {
				return Chunk{}, err
			}
			return Chunk{}, io.EOF
		}
		if cr.cur == nil {
			n, err := cr.sectionLen()
			if err != nil {
				if err := cr.fail(err); err != nil {
					return Chunk{}, err
				}
				continue
			}
			if cr.section == nil {
				cr.section = &io.LimitedReader{R: &cr.in}
				cr.secWin = make([]byte, 0, sectionWindow)
			}
			cr.section.N = n
			cr.cur = &rankDecoder{r: streamReader(cr.ctx, cr.section, cr.secWin), cr: cr, rank: cr.rank}
		}
		c := Chunk{Rank: cr.rank}
		finished, err := cr.cur.next(&c, limit)
		if err != nil {
			if err := cr.fail(err); err != nil {
				return Chunk{}, err
			}
		} else if finished {
			cr.endSection()
		}
		if c.Records() > 0 {
			cr.counts[c.Rank].events += len(c.Events)
			cr.counts[c.Rank].samples += len(c.Samples)
			return c, nil
		}
		// The rank carried no records, or damage ate the remainder; advance.
	}
}
