package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/obs"
	"phasefold/internal/par"
	"phasefold/internal/sim"
)

// Binary trace format ("PFT2"): a compact varint-based encoding analogous in
// role to Paraver's .prv container. Layout:
//
//	magic "PFT2"
//	app name (string)
//	symbol table: count, then {name, file, startLine, endLine}
//	stack table:  count, then {frames: count, {routine, line}...}
//	rank count
//	per rank: section byte length, then the section:
//	  event count, events (delta-coded times), sample count, samples
//
// The per-rank byte-length prefix is what makes the container parallel:
// sections are sliced off the stream sequentially (I/O is one pipe) but
// decoded concurrently, each into its own rank slot, so the merged trace is
// identical at any worker count. It also bounds damage: a salvage read skips
// a corrupt section and decodes the ranks after it. One parser reads the
// container — ChunkReader, in chunk.go — and Decode drives it section by
// section. Its varints parse from a byte window (see reader): a sliced
// section is its own window, a streamed one refills a fixed window. The
// retired unframed "PFT1" layout is rejected as bad magic.
//
// Counter snapshots are encoded as a presence bitmap plus varint values so
// multiplexed traces (mostly-uncaptured sets) stay small.

const binaryMagic = "PFT2"

// missingValue is the value both codecs have always used for a counter that
// was not captured: a captured -1 reads back as not captured, so files
// written before Set carried its own presence mask decode unchanged. No
// valid cumulative counter is negative.
const missingValue = -1

type stringWriter interface {
	io.Writer
	io.StringWriter
}

type writer struct {
	w   stringWriter
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) counterSet(s counters.Set) {
	mask := s.Captured()
	w.uvarint(uint64(mask))
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if v, ok := s.Get(id); ok {
			w.varint(v)
		}
	}
}

// sectionPool recycles the per-rank section buffers used by both Encode and
// Decode. Batch runs decode hundreds of traces back to back; without reuse
// every pass re-grows multi-megabyte buffers just to throw them away.
var sectionPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledSection bounds what goes back in the pool: one pathological
// multi-gigabyte trace must not pin its buffers for the process lifetime.
const maxPooledSection = 16 << 20

func getSectionBuf() *bytes.Buffer {
	b := sectionPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putSectionBuf(b *bytes.Buffer) {
	if b != nil && b.Cap() <= maxPooledSection {
		sectionPool.Put(b)
	}
}

// Encode writes t to w in the current binary trace format ("PFT2").
// Rank sections are independent byte ranges, so their payloads are encoded
// concurrently and written out in rank order; the emitted bytes are
// identical at any worker count.
func Encode(w io.Writer, t *Trace) error {
	out := bufio.NewWriterSize(w, 1<<16)
	bw := &writer{w: out}
	if _, err := out.WriteString(binaryMagic); err != nil {
		return err
	}
	encodeHeader(bw, t)
	sections := make([]*bytes.Buffer, len(t.Ranks))
	par.ForEach(0, len(t.Ranks), func(_, i int) {
		sections[i] = encodeRankSection(t.Ranks[i])
	})
	for _, sec := range sections {
		bw.uvarint(uint64(sec.Len()))
		bw.bytes(sec.Bytes())
		putSectionBuf(sec)
	}
	if bw.err != nil {
		return bw.err
	}
	return out.Flush()
}

// encodeHeader writes everything up to the rank sections: app name, symbol
// table, stack table, and the rank count.
func encodeHeader(bw *writer, t *Trace) {
	bw.str(t.AppName)
	routines := t.Symbols.Routines()
	bw.uvarint(uint64(len(routines)))
	for _, r := range routines {
		bw.str(r.Name)
		bw.str(r.File)
		bw.uvarint(uint64(r.StartLine))
		bw.uvarint(uint64(r.EndLine))
	}
	stacks := t.Stacks.All()
	bw.uvarint(uint64(len(stacks)))
	for _, s := range stacks {
		bw.uvarint(uint64(len(s)))
		for _, f := range s {
			bw.varint(int64(f.Routine))
			bw.uvarint(uint64(f.Line))
		}
	}
	bw.uvarint(uint64(len(t.Ranks)))
}

func encodeRankSection(rd *RankData) *bytes.Buffer {
	buf := getSectionBuf()
	bw := &writer{w: buf}
	bw.uvarint(uint64(len(rd.Events)))
	var prev sim.Time
	for _, e := range rd.Events {
		bw.uvarint(uint64(e.Time - prev))
		prev = e.Time
		bw.uvarint(uint64(e.Type))
		bw.varint(e.Value)
		bw.uvarint(uint64(e.Group))
		bw.counterSet(e.Counters)
	}
	bw.uvarint(uint64(len(rd.Samples)))
	prev = 0
	for _, s := range rd.Samples {
		bw.uvarint(uint64(s.Time - prev))
		prev = s.Time
		bw.varint(int64(s.Stack))
		bw.uvarint(uint64(s.Group))
		bw.counterSet(s.Counters)
	}
	return buf
}

// reader parses the format's varints and strings from a byte window:
// buf[off:] holds the bytes not consumed yet. A rank section sliced off the
// stream is its own window, so the input ends where the section does. A
// streamed source refills a fixed window (buf's capacity) from src
// whenever fewer than binary.MaxVarintLen64 bytes remain, so nearly every
// varint parses from one slice without a call per byte. Errors read as
// binary.ReadUvarint's would on the same bytes: io.EOF before a varint's
// first byte, io.ErrUnexpectedEOF inside one, errVarintOverflow past its
// tenth byte, and src's own error once the window has drained.
type reader struct {
	buf    []byte
	off    int
	src    io.Reader // refills the window; nil when buf holds all the input
	srcErr error     // what ended src (io.EOF for a sliced window)
	ctx    context.Context
	n      int // records decoded since the last cancellation poll
	err    error
}

// errVarintOverflow is the text binary.ReadUvarint reports for a varint
// longer than ten bytes.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// slicedReader parses a whole input held in memory.
func slicedReader(ctx context.Context, b []byte) reader {
	return reader{buf: b, srcErr: io.EOF, ctx: ctx}
}

// streamReader parses src through window, whose capacity is the window
// size; its contents are overwritten.
func streamReader(ctx context.Context, src io.Reader, window []byte) reader {
	return reader{buf: window[:0], src: src, ctx: ctx}
}

// pollInterval is how many records the decoder processes between context
// polls: frequent enough that a deadline interrupts a multi-gigabyte stream
// within milliseconds, rare enough to stay invisible in the decode profile.
const pollInterval = 1024

// poll checks the decode context every pollInterval records. It reports
// whether decoding may continue.
func (r *reader) poll() bool {
	if r.err != nil {
		return false
	}
	r.n++
	if r.n%pollInterval == 0 {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			return false
		}
	}
	return true
}

// maxEmptyReads is how many empty reads in a row fill accepts before it
// gives up with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// fill moves the unread bytes to the front of the window and tops it up
// with one read from src. It does nothing once src has ended.
func (r *reader) fill() {
	if r.srcErr != nil {
		return
	}
	n := copy(r.buf[:cap(r.buf)], r.buf[r.off:])
	r.buf, r.off = r.buf[:n], 0
	for range maxEmptyReads {
		m, err := r.src.Read(r.buf[n:cap(r.buf)])
		r.buf = r.buf[:n+m]
		if err != nil {
			r.srcErr = err
			return
		}
		if m > 0 {
			return
		}
	}
	r.srcErr = io.ErrNoProgress
}

// short records the error of a read that ran out of input: src's own
// error, with io.EOF read as io.ErrUnexpectedEOF once the item has begun.
func (r *reader) short(begun bool) {
	r.err = r.srcErr
	if begun && r.err == io.EOF {
		r.err = io.ErrUnexpectedEOF
	}
}

// Read hands out the window's bytes, then src's, so a reader can also be
// the source of a nested section or a bulk copy. A read at least as large
// as the window bypasses it.
func (r *reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.off == len(r.buf) {
		if r.srcErr == nil && len(p) >= cap(r.buf) {
			n, err := r.src.Read(p)
			if err != nil {
				r.srcErr = err
			}
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		if r.fill(); r.off == len(r.buf) {
			return 0, r.srcErr
		}
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < binary.MaxVarintLen64 {
		r.fill()
	}
	if len(r.buf)-r.off >= 8 {
		// A word at a time: the first byte with its high bit clear ends
		// the varint; drop the bytes after it and the continuation bits,
		// then pack the 7-bit groups pairwise into one value.
		w := binary.LittleEndian.Uint64(r.buf[r.off:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			n := bits.TrailingZeros64(stop) + 1 // 8 × the varint's length
			w &= (1<<n - 1) & 0x7f7f7f7f7f7f7f7f
			w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
			w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
			w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
			r.off += n / 8
			return w
		}
	}
	return r.uvarintBytes()
}

// uvarintBytes parses a varint byte by byte: one longer than eight bytes,
// or one the window does not hold whole — at the end of the input, or
// while a slow source delivers the stream in dribbles.
func (r *reader) uvarintBytes() uint64 {
	var x uint64
	for i := range binary.MaxVarintLen64 {
		if r.off == len(r.buf) {
			if r.fill(); r.off == len(r.buf) {
				r.short(i > 0)
				return x
			}
		}
		b := r.buf[r.off]
		r.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	r.err = errVarintOverflow
	return x
}

func (r *reader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// str reads a length-prefixed string with one allocation.
func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("trace: string length %d exceeds sanity limit", n)
		return ""
	}
	var sb strings.Builder
	sb.Grow(int(n))
	for sb.Len() < int(n) {
		if r.off == len(r.buf) {
			if r.fill(); r.off == len(r.buf) {
				r.short(sb.Len() > 0)
				return ""
			}
		}
		k := min(int(n)-sb.Len(), len(r.buf)-r.off)
		sb.Write(r.buf[r.off : r.off+k])
		r.off += k
	}
	return sb.String()
}

// counterSet reads a presence mask and the captured values into s.
func (r *reader) counterSet(s *counters.Set) {
	*s = counters.AllMissing()
	mask := r.uvarint()
	if r.err != nil {
		return
	}
	if mask >= 1<<uint(counters.NumIDs) {
		r.err = fmt.Errorf("%w: counter mask %#x has undefined bits", ErrCorrupt, mask)
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		if v := r.varint(); v != missingValue {
			s.Put(counters.ID(bits.TrailingZeros64(m)), v)
		}
	}
}

// Sanity limits on decoded collection sizes. Counts come straight from the
// (possibly hostile) input, so nothing may allocate proportionally to a
// count before enough bytes to justify it have actually been read; these
// caps bound the damage a single fabricated count can do.
const (
	maxDecodeCount  = 1 << 28 // events/samples per rank
	maxTableCount   = 1 << 22 // routines, stacks, ranks
	maxStackFrames  = 1 << 12 // frames per call stack
	maxSectionBytes = 1 << 36 // bytes per rank section (v2 length prefix)
)

func (r *reader) count(what string, limit uint64) int {
	n := r.uvarint()
	if r.err != nil {
		// A partially-read varint can carry an arbitrary value; never let
		// it reach a caller that might size an allocation with it.
		return 0
	}
	if n > limit {
		r.err = fmt.Errorf("%w: %s count %d exceeds sanity limit %d", ErrCorrupt, what, n, limit)
		return 0
	}
	return int(n)
}

// DecodeOptions configures trace decoding.
type DecodeOptions struct {
	// Salvage enables lenient decoding: instead of failing on a truncated
	// or corrupt stream, Decode keeps every record decoded before the
	// damage, repairs the result with Sanitize, and reports what happened
	// in the SalvageReport. The header (magic, symbol and stack tables)
	// must still decode — without it the records are uninterpretable.
	Salvage bool
	// Exec composes the execution knobs shared with the analysis stages.
	// Decode consumes Parallelism — the goroutine cap for decoding rank
	// sections and for repairing and validating each decoded rank; zero or
	// negative means runtime.GOMAXPROCS(0), and the decoded trace (and in
	// salvage mode the report) is identical at any setting. ChunkReader
	// and DecodeText read on one goroutine and ignore it. Budget rides
	// along for callers composing one struct; the decoder does not enforce
	// it. The fields are promoted, so opt.Parallelism keeps working; only
	// composite literals need the Exec wrapper.
	exec.Exec
}

// SalvageReport describes what a lenient decode recovered.
type SalvageReport struct {
	// Err is the decode error that was suppressed, wrapping ErrTruncated
	// or ErrCorrupt; nil when the stream decoded cleanly.
	Err error
	// Events and Samples count the records recovered.
	Events, Samples int
	// RanksLost counts ranks whose streams were cut short or never
	// reached before the damage point.
	RanksLost int
	// Problems lists the repairs Sanitize made on the recovered records.
	Problems []Problem
}

// Complete reports whether the stream decoded without damage.
func (sr *SalvageReport) Complete() bool {
	return sr != nil && sr.Err == nil && len(sr.Problems) == 0
}

// Summary renders the report as a short human-readable line.
func (sr *SalvageReport) Summary() string {
	if sr.Complete() {
		return fmt.Sprintf("decoded cleanly: %d events, %d samples", sr.Events, sr.Samples)
	}
	s := fmt.Sprintf("recovered %d events, %d samples (%d ranks damaged, %d repairs)",
		sr.Events, sr.Samples, sr.RanksLost, len(sr.Problems))
	if sr.Err != nil {
		// errors.Join renders multi-line; flatten for the one-line summary.
		s += ": " + strings.ReplaceAll(fmt.Sprint(sr.Err), "\n", ": ")
	}
	return s
}

// Decode reads a binary-format trace from rd under ctx and opt. It drives
// ChunkReader's parser: the rank sections are sliced off the stream in
// order into pooled buffers and drained concurrently by the same record
// loop, opt.Parallelism workers, each into its own rank slot, so the result
// is deterministic. The worker that drained a rank also repairs it
// (Sanitize's per-rank pass, salvage mode only) and validates it, inside
// its decode_worker_N span; the repairs are reported in rank order, and a
// decode error takes precedence over the lowest-rank validation error,
// exactly as a serial Sanitize and Validate after the decode would give
// them. The SalvageReport is non-nil exactly when opt.Salvage is
// set and any records were recovered; errors wrap the package sentinels
// (ErrBadMagic, ErrTruncated, ErrCorrupt, ErrNoRanks, ErrInvalid — all
// matching ErrFormat) for errors.Is dispatch.
//
// The record loops poll ctx every few thousand records, so a deadline or
// cancellation interrupts even a multi-gigabyte stream promptly; the
// resulting error matches errors.Is(err, context.Canceled/DeadlineExceeded)
// and is never absorbed by salvage mode (cancellation says nothing about the
// input). Cancellation can only interrupt a Read that returns; a reader that
// blocks indefinitely without honoring ctx itself still blocks the decode.
func Decode(ctx context.Context, rd io.Reader, opt DecodeOptions) (*Trace, *SalvageReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ctx, span := obs.StartSpan(ctx, "decode")
	defer span.End()
	counted := &countingReader{r: rd}
	finish := startDecodePass(ctx, span, "binary", opt, counted)
	cr, err := NewChunkReader(ctx, counted, opt)
	if err != nil {
		return nil, nil, err
	}
	t, err := cr.Skeleton()
	if err != nil {
		return nil, nil, err
	}
	// Slice the sections off the stream in rank order (the stream is one
	// pipe — I/O stays sequential) until the ranks or the stream run out.
	bufs := make([]*bytes.Buffer, 0, len(t.Ranks))
	missing := make([]int64, 0, len(t.Ranks))
	defer func() {
		for _, b := range bufs {
			putSectionBuf(b)
		}
	}()
	var streamErr error
	for len(bufs) < len(t.Ranks) && streamErr == nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		buf, miss, err := cr.sliceSection()
		if buf != nil {
			bufs, missing = append(bufs, buf), append(missing, miss)
		}
		streamErr = err
	}
	// One child span per worker, not per rank: a million-rank trace must
	// not allocate a million spans. Each worker owns its span exclusively.
	workers := min(par.N(opt.Parallelism), len(bufs))
	wspans := make([]*obs.Span, max(workers, 1))
	for w := range wspans {
		_, wspans[w] = obs.StartSpan(ctx, fmt.Sprintf("decode_worker_%d", w))
	}
	// Each worker also checks the ranks it drained, repairing them first in
	// salvage mode: the checks are per rank, so they run where the records
	// are still in cache. Ranks the stream never reached stay empty, which
	// needs neither.
	rankErrs := make([]error, len(bufs))
	invalid := make([]error, len(bufs))
	repairs := make([][]Problem, len(bufs))
	dangling := make([]int, len(bufs))
	par.ForEach(workers, len(bufs), func(worker, rank int) {
		d := cr.sectionDecoder(rank, bufs[rank], missing[rank])
		c := Chunk{Rank: rank}
		_, rankErrs[rank] = d.next(&c, math.MaxInt)
		t.Ranks[rank].Events, t.Ranks[rank].Samples = c.Events, c.Samples
		dangling[rank] = d.dangling
		wspans[worker].AddInt("ranks", 1)
		wspans[worker].AddInt("records", int64(c.Records()))
		if ctx.Err() != nil {
			return
		}
		if opt.Salvage {
			repairs[rank] = t.SanitizeRank(rank)
		}
		invalid[rank] = t.ValidateRank(rank)
	})
	for _, s := range wspans {
		s.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Fixed error precedence keeps failures deterministic: the lowest-rank
	// section error wins, then any stream-level one, then the lowest-rank
	// validation error.
	decodeErr := firstErr(rankErrs)
	if decodeErr == nil {
		decodeErr = streamErr
	}
	log := &cr.log
	if err := log.absorb(decodeErr); err != nil {
		return nil, nil, err
	}
	invalidErr := firstErr(invalid)
	if !opt.Salvage {
		if invalidErr != nil {
			return nil, nil, fmt.Errorf("decoded trace invalid: %w", invalidErr)
		}
		finish(t, nil)
		return t, nil, nil
	}
	// Salvage: keep what was recovered and repaired, and report.
	for _, d := range dangling {
		log.dangling += d
	}
	for i, rd := range t.Ranks {
		cr.counts[i] = recordCount{len(rd.Events), len(rd.Samples)}
	}
	report, err := log.finish(cr.counts, slices.Concat(repairs...))
	if err != nil {
		return nil, nil, err
	}
	if invalidErr != nil {
		return nil, nil, fmt.Errorf("salvaged trace still invalid: %w", invalidErr)
	}
	finish(t, report)
	return t, report, nil
}

// firstErr returns the first error of errs that is not nil.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countingReader counts the bytes pulled through an io.Reader so the decode
// span can report throughput. Single-goroutine by construction: the binary
// and text decoders read their source sequentially.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// startDecodePass counts one decoder invocation and returns the closure a
// successful decode calls to land its volume on the caller's telemetry —
// record counts and throughput as span attributes and run-wide series, plus
// the decode latency histogram. cr may be nil (no byte accounting). All of
// it is inert when the context carries no telemetry.
func startDecodePass(ctx context.Context, span *obs.Span, format string, opt DecodeOptions, cr *countingReader) func(*Trace, *SalvageReport) {
	mode := "strict"
	if opt.Salvage {
		mode = "salvage"
	}
	span.SetAttr("format", format)
	span.SetAttr("mode", mode)
	reg := obs.Metrics(ctx)
	reg.Counter(obs.MetricDecodePasses, "Decoder passes run, by format and mode.",
		obs.Label{K: "format", V: format}, obs.Label{K: "mode", V: mode}).Inc()
	start := time.Now()
	return func(t *Trace, report *SalvageReport) {
		elapsed := time.Since(start)
		reg.Histogram(obs.MetricDecodeDuration, "Trace decode duration in seconds.",
			obs.DurationBuckets(), obs.Label{K: "format", V: format}).
			Observe(elapsed.Seconds())
		events, samples := 0, 0
		for _, rd := range t.Ranks {
			events += len(rd.Events)
			samples += len(rd.Samples)
		}
		span.SetAttr("ranks", len(t.Ranks))
		span.SetAttr("events", events)
		span.SetAttr("samples", samples)
		if sec := elapsed.Seconds(); sec > 0 {
			rps := float64(events+samples) / sec
			span.SetAttr("records_per_sec", rps)
			reg.Gauge(obs.MetricStageThroughput,
				"Records processed per second by the last pass of each stage.",
				obs.Label{K: "stage", V: "decode"}).Set(rps)
			if cr != nil && cr.n > 0 {
				span.SetAttr("bytes", cr.n)
				span.SetAttr("bytes_per_sec", float64(cr.n)/sec)
			}
		}
		reg.Counter(obs.MetricRecordsDecoded, "Trace records (events and samples) decoded.").
			Add(int64(events + samples))
		if report == nil {
			return
		}
		repairs := int64(0)
		for _, p := range report.Problems {
			repairs += int64(p.Count)
		}
		if repairs > 0 {
			span.SetAttr("salvage_repairs", repairs)
			reg.Counter(obs.MetricSalvageRepairs,
				"Records repaired or cleared by salvage decoding.").Add(repairs)
		}
	}
}
