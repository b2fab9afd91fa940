package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// drainChunks reads every chunk of cr into its skeleton trace.
func drainChunks(cr *trace.ChunkReader, limit int) (*trace.Trace, error) {
	tr, err := cr.Skeleton()
	if err != nil {
		return nil, err
	}
	for {
		c, err := cr.Next(limit)
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		rd := tr.Ranks[c.Rank]
		rd.Events = append(rd.Events, c.Events...)
		rd.Samples = append(rd.Samples, c.Samples...)
	}
}

func requireSameRecords(t *testing.T, name string, a, b *trace.Trace) {
	t.Helper()
	if a.NumRanks() != b.NumRanks() {
		t.Fatalf("%s: %d ranks vs %d", name, a.NumRanks(), b.NumRanks())
	}
	for r := range a.Ranks {
		if !slices.Equal(a.Ranks[r].Events, b.Ranks[r].Events) || !slices.Equal(a.Ranks[r].Samples, b.Ranks[r].Samples) {
			t.Fatalf("%s: rank %d records differ", name, r)
		}
	}
}

// requireChunkedLikeDecode reads data through a ChunkReader fed by src and
// requires what Decode makes of the same bytes. Strict: the drained records
// pass validation exactly when Decode succeeds, are Decode's records, and
// any failure carries Decode's error text. Salvage: the drained records,
// sanitized, are Decode's trace, and the reader's report plus the repairs
// is Decode's report.
func requireChunkedLikeDecode(t *testing.T, name string, data []byte, src io.Reader, salvage bool, limit int) {
	t.Helper()
	ctx := context.Background()
	opt := trace.DecodeOptions{Salvage: salvage}
	batch, rep, err := trace.Decode(ctx, bytes.NewReader(data), opt)
	cr, cerr := trace.NewChunkReader(ctx, src, opt)
	var chunked *trace.Trace
	if cerr == nil {
		chunked, cerr = drainChunks(cr, limit)
	}
	var want *trace.SalvageReport
	if cerr == nil && salvage {
		want = cr.Report()
		want.Problems = append(want.Problems, chunked.Sanitize()...)
		want.Events, want.Samples, want.RanksLost = 0, 0, 0
		for _, rd := range chunked.Ranks {
			want.Events += len(rd.Events)
			want.Samples += len(rd.Samples)
			if want.Err != nil && len(rd.Events)+len(rd.Samples) == 0 {
				want.RanksLost++
			}
		}
		if want.Err != nil && want.Events+want.Samples == 0 {
			cerr = fmt.Errorf("nothing salvageable: %w", want.Err)
		}
	}
	if cerr == nil {
		if verr := chunked.Validate(); verr != nil {
			prefix := "decoded trace invalid"
			if salvage {
				prefix = "salvaged trace still invalid"
			}
			cerr = fmt.Errorf("%s: %w", prefix, verr)
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(cerr) {
		t.Fatalf("%s: Decode error %v, ChunkReader error %v", name, err, cerr)
	}
	if err != nil {
		return
	}
	requireSameRecords(t, name, batch, chunked)
	if salvage && (fmt.Sprint(rep.Err) != fmt.Sprint(want.Err) || rep.Events != want.Events ||
		rep.Samples != want.Samples || rep.RanksLost != want.RanksLost || !reflect.DeepEqual(rep.Problems, want.Problems)) {
		t.Fatalf("%s: Decode report %+v, ChunkReader gives %+v", name, rep, want)
	}
}

// windowSources are readers that cut the stream at every possible place:
// one byte per read, half of each request, and the last bytes delivered
// together with io.EOF.
var windowSources = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"dataerr", iotest.DataErrReader},
}

// TestChunkReaderWindowBoundaries drives ChunkReader's refilled windows
// through readers that split the stream everywhere, over the decode
// golden's inputs and over every prefix of a small trace (so the stream
// ends inside each varint once), and holds it to Decode on the same bytes.
func TestChunkReaderWindowBoundaries(t *testing.T) {
	names, inputs := goldenInputs(t)
	for _, name := range names {
		data := inputs[name]
		for _, src := range windowSources {
			for _, salvage := range []bool{false, true} {
				requireChunkedLikeDecode(t, fmt.Sprintf("%s/%s/salvage=%v", name, src.name, salvage),
					data, src.wrap(bytes.NewReader(data)), salvage, 7)
			}
		}
	}

	data := smallTrace(t)
	for n := range len(data) + 1 {
		prefix := data[:n]
		for _, src := range windowSources {
			for _, salvage := range []bool{false, true} {
				requireChunkedLikeDecode(t, fmt.Sprintf("prefix%d/%s/salvage=%v", n, src.name, salvage),
					prefix, src.wrap(bytes.NewReader(prefix)), salvage, 3)
			}
		}
	}
}

// smallTrace encodes two ranks of a few records whose counters run into
// multi-byte varints.
func smallTrace(t *testing.T) []byte {
	t.Helper()
	syms := callstack.NewSymbolTable()
	rt := syms.Define(callstack.Routine{Name: "kernel", File: "k.c", StartLine: 1, EndLine: 40})
	tr := trace.New("small", 2, syms, callstack.NewInterner())
	st := tr.Stacks.Intern(callstack.Stack{{Routine: rt, Line: 12}})
	for r := int32(0); r < 2; r++ {
		now, ins := sim.Time(1000), int64(1)<<33
		ctr := func() counters.Set {
			s := counters.AllMissing()
			s.Put(counters.Instructions, ins)
			s.Put(counters.Cycles, 3*ins)
			return s
		}
		for it := int64(0); it < 3; it++ {
			tr.AddEvent(trace.Event{Time: now, Rank: r, Type: trace.RegionEnter, Value: 1 << 20, Counters: ctr()})
			now, ins = now+70000, ins+1<<27
			tr.AddSample(trace.Sample{Time: now, Rank: r, Counters: ctr(), Stack: st})
			now, ins = now+90, ins+5
			tr.AddEvent(trace.Event{Time: now, Rank: r, Type: trace.RegionExit, Value: 1 << 20, Counters: ctr()})
		}
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
