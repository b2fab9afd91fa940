package trace

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/obs"
	"phasefold/internal/sim"
)

// Text trace format: a line-oriented, human-inspectable rendering in the
// spirit of Paraver's .prv files. One record per line:
//
//	#PFTEXT1 <app>
//	R <id> <name> <file> <startLine> <endLine>          routine definition
//	K <id> <nframes> (<routine>:<line>)...              stack definition
//	E <rank> <time> <type> <value> <group> <counters>   event
//	S <rank> <time> <stack> <group> <counters>          sample
//
// Counters are rendered as comma-separated "id=value" pairs of the captured
// counters only ("-" when none are captured).

const textMagic = "#PFTEXT1"

func formatCounters(s counters.Set) string {
	var b strings.Builder
	first := true
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		v, ok := s.Get(id)
		if !ok {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d=%d", id, v)
	}
	if first {
		return "-"
	}
	return b.String()
}

func parseCounters(field string) (counters.Set, error) {
	s := counters.AllMissing()
	if field == "-" {
		return s, nil
	}
	for _, pair := range strings.Split(field, ",") {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return s, fmt.Errorf("trace: bad counter pair %q", pair)
		}
		id, err := strconv.Atoi(pair[:eq])
		if err != nil || id < 0 || id >= int(counters.NumIDs) {
			return s, fmt.Errorf("trace: bad counter id in %q", pair)
		}
		v, err := strconv.ParseInt(pair[eq+1:], 10, 64)
		if err != nil {
			return s, fmt.Errorf("trace: bad counter value in %q", pair)
		}
		if v == missingValue {
			s.Drop(counters.ID(id))
		} else {
			s.Put(counters.ID(id), v)
		}
	}
	return s, nil
}

// EncodeText writes t to w in the text trace format.
func EncodeText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s %s\n", textMagic, t.AppName); err != nil {
		return err
	}
	for id, r := range t.Symbols.Routines() {
		fmt.Fprintf(bw, "R %d %s %s %d %d\n", id, r.Name, r.File, r.StartLine, r.EndLine)
	}
	for id, st := range t.Stacks.All() {
		fmt.Fprintf(bw, "K %d %d", id, len(st))
		for _, f := range st {
			fmt.Fprintf(bw, " %d:%d", f.Routine, f.Line)
		}
		fmt.Fprintln(bw)
	}
	for _, rd := range t.Ranks {
		for _, e := range rd.Events {
			fmt.Fprintf(bw, "E %d %d %s %d %d %s\n",
				e.Rank, e.Time, e.Type, e.Value, e.Group, formatCounters(e.Counters))
		}
		for _, s := range rd.Samples {
			fmt.Fprintf(bw, "S %d %d %d %d %s\n",
				s.Rank, s.Time, s.Stack, s.Group, formatCounters(s.Counters))
		}
	}
	return bw.Flush()
}

var eventTypeByName = func() map[string]EventType {
	m := make(map[string]EventType, numEventTypes)
	for t := EventType(0); t < numEventTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// maxTextRank bounds the rank numbers a text trace may declare; the decoder
// allocates a slot per rank up to the maximum seen, so an absurd rank number
// must not translate into an absurd allocation.
const maxTextRank = 1 << 20

// DecodeText reads a text-format trace from rd under ctx and opt. In
// salvage mode, malformed lines are skipped (and reported) instead of
// failing the decode, and the recovered records are repaired with Sanitize.
// Errors wrap the package sentinels for errors.Is dispatch. The line loop
// polls ctx every few thousand lines and aborts with its error, even in
// salvage mode (cancellation is never damage to absorb). The format is
// line-oriented with no framing, so text decoding is single-goroutine;
// opt.Parallelism is ignored here.
func DecodeText(ctx context.Context, rd io.Reader, opt DecodeOptions) (*Trace, *SalvageReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ctx, span := obs.StartSpan(ctx, "decode")
	defer span.End()
	cr := &countingReader{r: rd}
	finish := startDecodePass(ctx, span, "text", opt, cr)
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("%w: empty text trace", ErrTruncated)
	}
	header := strings.Fields(sc.Text())
	if len(header) < 1 || header[0] != textMagic {
		return nil, nil, fmt.Errorf("%w: bad text header %q", ErrBadMagic, sc.Text())
	}
	app := ""
	if len(header) > 1 {
		app = strings.Join(header[1:], " ")
	}
	syms := callstack.NewSymbolTable()
	stacks := callstack.NewInterner()
	var stackIDs []callstack.StackID
	var events []Event
	var samples []Sample
	maxRank := -1
	lineNo := 1
	badLines := 0
	var firstBad error
	fail := func(format string, args ...any) error {
		err := fmt.Errorf("%w: line %d: %s", ErrCorrupt, lineNo, fmt.Sprintf(format, args...))
		if opt.Salvage {
			badLines++
			if firstBad == nil {
				firstBad = err
			}
			return nil
		}
		return err
	}
	for sc.Scan() {
		lineNo++
		if lineNo%pollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "R":
			if len(f) != 6 {
				if err := fail("malformed routine definition"); err != nil {
					return nil, nil, err
				}
				continue
			}
			start, err1 := strconv.Atoi(f[4])
			end, err2 := strconv.Atoi(f[5])
			if err1 != nil || err2 != nil {
				if err := fail("bad routine lines"); err != nil {
					return nil, nil, err
				}
				continue
			}
			rt := callstack.Routine{Name: f[2], File: f[3], StartLine: start, EndLine: end}
			if cerr := rt.Check(); cerr != nil {
				if err := fail("bad routine: %v", cerr); err != nil {
					return nil, nil, err
				}
				continue
			}
			syms.Define(rt)
		case "K":
			if len(f) < 3 {
				if err := fail("malformed stack definition"); err != nil {
					return nil, nil, err
				}
				continue
			}
			nf, err := strconv.Atoi(f[2])
			if err != nil || nf != len(f)-3 || nf > maxStackFrames {
				if err := fail("stack frame count mismatch"); err != nil {
					return nil, nil, err
				}
				continue
			}
			st := make(callstack.Stack, 0, nf)
			bad := false
			for i := 0; i < nf; i++ {
				colon := strings.IndexByte(f[3+i], ':')
				if colon < 0 {
					bad = true
					break
				}
				rid, err1 := strconv.Atoi(f[3+i][:colon])
				ln, err2 := strconv.Atoi(f[3+i][colon+1:])
				if err1 != nil || err2 != nil {
					bad = true
					break
				}
				st = append(st, callstack.Frame{Routine: callstack.RoutineID(rid), Line: ln})
			}
			if bad {
				if err := fail("bad stack frame"); err != nil {
					return nil, nil, err
				}
				continue
			}
			stackIDs = append(stackIDs, stacks.Intern(st))
		case "E":
			if len(f) != 7 {
				if err := fail("malformed event"); err != nil {
					return nil, nil, err
				}
				continue
			}
			rank, err1 := strconv.Atoi(f[1])
			tm, err2 := strconv.ParseInt(f[2], 10, 64)
			typ, okT := eventTypeByName[f[3]]
			val, err3 := strconv.ParseInt(f[4], 10, 64)
			grp, err4 := strconv.Atoi(f[5])
			if err1 != nil || err2 != nil || !okT || err3 != nil || err4 != nil ||
				rank < 0 || rank > maxTextRank {
				if err := fail("bad event fields"); err != nil {
					return nil, nil, err
				}
				continue
			}
			ctr, err := parseCounters(f[6])
			if err != nil {
				if err := fail("%v", err); err != nil {
					return nil, nil, err
				}
				continue
			}
			if rank > maxRank {
				maxRank = rank
			}
			events = append(events, Event{
				Time: sim.Time(tm), Rank: int32(rank), Type: typ, Value: val,
				Group: uint8(grp), Counters: ctr,
			})
		case "S":
			if len(f) != 6 {
				if err := fail("malformed sample"); err != nil {
					return nil, nil, err
				}
				continue
			}
			rank, err1 := strconv.Atoi(f[1])
			tm, err2 := strconv.ParseInt(f[2], 10, 64)
			sid, err3 := strconv.Atoi(f[3])
			grp, err4 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
				rank < 0 || rank > maxTextRank {
				if err := fail("bad sample fields"); err != nil {
					return nil, nil, err
				}
				continue
			}
			ctr, err := parseCounters(f[5])
			if err != nil {
				if err := fail("%v", err); err != nil {
					return nil, nil, err
				}
				continue
			}
			stack := callstack.StackID(sid)
			if stack != callstack.NoStack {
				if sid < 0 || sid >= len(stackIDs) {
					if err := fail("sample references unknown stack %d", sid); err != nil {
						return nil, nil, err
					}
					stack = callstack.NoStack
				} else {
					stack = stackIDs[sid]
				}
			}
			if rank > maxRank {
				maxRank = rank
			}
			samples = append(samples, Sample{
				Time: sim.Time(tm), Rank: int32(rank), Stack: stack,
				Group: uint8(grp), Counters: ctr,
			})
		default:
			if err := fail("unknown record kind %q", f[0]); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if !opt.Salvage {
			return nil, nil, classifyRead(err)
		}
		badLines++
		if firstBad == nil {
			firstBad = classifyRead(err)
		}
	}
	if maxRank < 0 {
		return nil, nil, fmt.Errorf("%w: text trace has no records", ErrNoRanks)
	}
	t, err := NewChecked(app, maxRank+1, syms, stacks)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range events {
		t.AddEvent(e)
	}
	for _, s := range samples {
		t.AddSample(s)
	}
	t.SortRecords()
	if !opt.Salvage {
		if err := t.Validate(); err != nil {
			return nil, nil, fmt.Errorf("decoded text trace invalid: %w", err)
		}
		finish(t, nil)
		return t, nil, nil
	}
	report := &SalvageReport{Err: firstBad, Events: len(events), Samples: len(samples)}
	if badLines > 0 {
		report.Problems = append(report.Problems, Problem{
			Rank: -1, Kind: ProblemCorruptLine, Count: badLines,
			Detail: "malformed text lines skipped",
		})
	}
	report.Problems = append(report.Problems, t.Sanitize()...)
	if err := t.Validate(); err != nil {
		return nil, nil, fmt.Errorf("salvaged trace still invalid: %w", err)
	}
	finish(t, report)
	return t, report, nil
}
