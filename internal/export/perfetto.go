package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"phasefold/internal/core"
)

// Perfetto pid/tid layout. Chrome trace-event viewers group events into
// processes (pid) and tracks (tid); we map the analysis onto three fixed
// processes so every view lands in a predictable place.
const (
	pidRanks       = 1 // per-rank burst timeline, tid = rank
	pidPhases      = 2 // per-rank reconstructed phase timeline, tid = rank
	pidClusters    = 3 // per-cluster folded representative burst, tid = label
	pidDiagnostics = 4 // absorbed-fault instant events, tid = 0
)

// eventKind says which view record an event renders and how.
type eventKind uint8

const (
	evProcess eventKind = iota // process_name metadata
	evThread                   // thread_name metadata
	evBurst                    // one burst on its rank track; ref = burst
	evPhase                    // a phase slice of a burst; ref = phase fragment
	evFolded                   // a phase of a folded representative; ref = phase fragment
	evRep                      // an unfitted folded representative; ref = cluster
	evDiag                     // a diagnostic instant; ref = diagnostic
)

// event is one trace-event record reduced to its sort key and a reference
// into the view; the JSON is rendered only after sorting.
type event struct {
	ts, dur float64 // microseconds
	tid     int
	pid     uint8
	kind    eventKind
	ref     int32 // what ref indexes depends on kind
}

// phaseFrag locates one (cluster, phase)'s pre-rendered JSON in the
// fragment arena: the quoted name in [lo, mid) and the indented args
// object in [mid, hi). Phase slices and folded phases share it.
type phaseFrag struct{ lo, mid, hi int32 }

// WritePerfetto renders the view as a Chrome trace-event / Perfetto JSON
// timeline: per-rank burst tracks, per-rank reconstructed phase tracks
// (each burst of a fitted cluster subdivided at the fitted breakpoints),
// one synthetic folded-burst track per cluster, and the diagnostics as
// instant events. Events within a track are sorted by timestamp and never
// overlap; timestamps are microseconds and displayTimeUnit is "ms". The
// output is deterministic for a given view, and byte-identical to
// encoding/json's indented encoding of the same events. A NaN or infinite
// timestamp or duration is an error, and nothing is written.
func WritePerfetto(w io.Writer, v *core.ExportView) error {
	// Each (cluster, phase)'s name and args are the same on every burst of
	// the cluster: render them once.
	var arena []byte
	fragBase := make([]int32, len(v.Clusters))
	var frags []phaseFrag
	phasesOf := make(map[int]int, len(v.Clusters)) // label → cluster index
	for ci := range v.Clusters {
		c := &v.Clusters[ci]
		fragBase[ci] = int32(len(frags))
		if len(c.Phases) > 0 {
			phasesOf[c.Label] = ci
		}
		for pi := range c.Phases {
			p := &c.Phases[pi]
			f := phaseFrag{lo: int32(len(arena))}
			if p.Source != "" {
				arena = appendString(arena, p.Source)
			} else {
				arena = strconv.AppendInt(append(arena, `"phase `...), int64(p.Index), 10)
				arena = append(arena, '"')
			}
			f.mid = int32(len(arena))
			arena = appendArgsHead(arena, c.Label, c.Region)
			if p.Source != "" {
				arena = appendString(append(arena, ",\n    \"source\": "...), p.Source)
			}
			if p.Share > 0 {
				arena = append(arena, ",\n    \"share\": \""...)
				arena = fmt.Appendf(arena, "%.2f", p.Share)
				arena = append(arena, '"')
			}
			arena = append(arena, "\n   }"...)
			f.hi = int32(len(arena))
			frags = append(frags, f)
		}
	}

	evs := make([]event, 0, 6+2*max(v.Ranks, 0)+len(v.Clusters)+len(v.Bursts)+len(frags)+len(v.Diagnostics))
	addSpan := func(kind eventKind, pid uint8, tid int, ts, dur float64, ref int32) error {
		if !finite(ts) || !finite(dur) {
			return fmt.Errorf("export: perfetto event at pid %d tid %d: unsupported value ts=%v dur=%v", pid, tid, ts, dur)
		}
		evs = append(evs, event{ts: ts, dur: dur, tid: tid, pid: pid, kind: kind, ref: ref})
		return nil
	}

	// Process and thread naming metadata first, in pid/tid order.
	evs = append(evs, event{pid: pidRanks, kind: evProcess})
	for r := 0; r < v.Ranks; r++ {
		evs = append(evs, event{pid: pidRanks, tid: r, kind: evThread})
	}
	evs = append(evs, event{pid: pidPhases, kind: evProcess})
	for r := 0; r < v.Ranks; r++ {
		evs = append(evs, event{pid: pidPhases, tid: r, kind: evThread})
	}
	if len(v.Clusters) > 0 {
		evs = append(evs, event{pid: pidClusters, kind: evProcess})
		for _, c := range v.Clusters {
			evs = append(evs, event{pid: pidClusters, tid: c.Label, kind: evThread})
		}
	}
	if len(v.Diagnostics) > 0 {
		evs = append(evs, event{pid: pidDiagnostics, kind: evProcess})
	}

	// Per-rank burst events plus the reconstructed phase slices: a burst in
	// a fitted cluster is subdivided at the cluster's normalized breakpoints
	// scaled into the burst's own [start, end) interval.
	for i := range v.Bursts {
		b := &v.Bursts[i]
		if err := addSpan(evBurst, pidRanks, int(b.Rank), float64(b.Start)/1e3, float64(b.End-b.Start)/1e3, int32(i)); err != nil {
			return err
		}
		ci, ok := phasesOf[b.Cluster]
		if !ok {
			continue
		}
		c := &v.Clusters[ci]
		span := float64(b.End - b.Start)
		for pi := range c.Phases {
			p := &c.Phases[pi]
			t0 := float64(b.Start) + p.X0*span
			t1 := float64(b.Start) + p.X1*span
			if err := addSpan(evPhase, pidPhases, int(b.Rank), t0/1e3, (t1-t0)/1e3, fragBase[ci]+int32(pi)); err != nil {
				return err
			}
		}
	}

	// Synthetic cluster tracks: the folded representative burst laid out
	// from t=0. A fitted cluster is drawn as its phase subdivision; an
	// unfitted one as a single representative slice. Either way the track
	// stays non-overlapping.
	for ci := range v.Clusters {
		c := &v.Clusters[ci]
		if c.RepDuration <= 0 {
			continue
		}
		if len(c.Phases) == 0 {
			evs = append(evs, event{dur: float64(c.RepDuration) / 1e3, tid: c.Label, pid: pidClusters, kind: evRep, ref: int32(ci)})
			continue
		}
		rep := float64(c.RepDuration)
		for pi := range c.Phases {
			p := &c.Phases[pi]
			if err := addSpan(evFolded, pidClusters, c.Label, p.X0*rep/1e3, (p.X1-p.X0)*rep/1e3, fragBase[ci]+int32(pi)); err != nil {
				return err
			}
		}
	}

	for i := range v.Diagnostics {
		evs = append(evs, event{ts: float64(i), pid: pidDiagnostics, kind: evDiag, ref: int32(i)})
	}

	sortEvents(evs)
	return writeEvents(w, v, evs, arena, frags)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// sortEvents orders metadata first, then by (pid, tid, ts, dur descending)
// so each track reads monotonically and enclosing events precede enclosed
// ones — the layout trace viewers expect. The sort is stable, so events
// that tie on every key keep their construction order.
func sortEvents(evs []event) {
	slices.SortStableFunc(evs, func(a, b event) int {
		am, bm := a.kind <= evThread, b.kind <= evThread // metadata
		switch {
		case am != bm:
			if am {
				return -1
			}
			return 1
		case a.pid != b.pid:
			return int(a.pid) - int(b.pid)
		case a.tid != b.tid:
			if a.tid < b.tid {
				return -1
			}
			return 1
		case a.ts != b.ts:
			if a.ts < b.ts {
				return -1
			}
			return 1
		case a.dur != b.dur:
			if a.dur > b.dur {
				return -1
			}
			return 1
		}
		return 0
	})
}

// writeEvents renders the sorted events as the indented JSON document and
// writes it in one call.
func writeEvents(w io.Writer, v *core.ExportView, evs []event, arena []byte, frags []phaseFrag) error {
	buf := make([]byte, 0, 64+len(evs)*perfettoEventBytes+len(arena))
	buf = append(buf, "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"...)
	for i := range evs {
		e := &evs[i]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, "  {\n   \"name\": "...)
		ph := "X"
		switch e.kind {
		case evProcess:
			buf = append(buf, `"process_name"`...)
			ph = "M"
		case evThread:
			buf = append(buf, `"thread_name"`...)
			ph = "M"
		case evBurst:
			if c := v.Bursts[e.ref].Cluster; c >= 0 {
				buf = strconv.AppendInt(append(buf, `"cluster `...), int64(c), 10)
				buf = append(buf, '"')
			} else {
				buf = append(buf, `"noise"`...)
			}
		case evPhase, evFolded:
			f := frags[e.ref]
			buf = append(buf, arena[f.lo:f.mid]...)
		case evRep:
			buf = strconv.AppendInt(append(buf, `"cluster `...), int64(v.Clusters[e.ref].Label), 10)
			buf = append(buf, ` representative"`...)
		case evDiag:
			d := &v.Diagnostics[e.ref]
			buf = appendString(buf, d.Severity, ": ", d.Stage)
			ph = "i"
		}
		buf = append(buf, ",\n   \"ph\": \""...)
		buf = append(buf, ph...)
		buf = appendFloat(append(buf, "\",\n   \"ts\": "...), e.ts)
		if e.dur != 0 {
			buf = appendFloat(append(buf, ",\n   \"dur\": "...), e.dur)
		}
		buf = strconv.AppendInt(append(buf, ",\n   \"pid\": "...), int64(e.pid), 10)
		buf = strconv.AppendInt(append(buf, ",\n   \"tid\": "...), int64(e.tid), 10)
		switch e.kind {
		case evProcess:
			buf = append(buf, ",\n   \"args\": {\n    \"name\": "...)
			buf = appendString(buf, v.App, processSuffix[e.pid])
			buf = append(buf, "\n   }"...)
		case evThread:
			buf = append(buf, ",\n   \"args\": {\n    \"name\": \""...)
			if e.pid == pidClusters {
				buf = append(buf, "cluster "...)
			} else {
				buf = append(buf, "rank "...)
			}
			buf = strconv.AppendInt(buf, int64(e.tid), 10)
			if e.pid == pidPhases {
				buf = append(buf, " phases"...)
			}
			buf = append(buf, "\"\n   }"...)
		case evBurst:
			b := &v.Bursts[e.ref]
			buf = appendArgsHead(append(buf, ",\n   \"cat\": \"burst\""...), b.Cluster, b.Region)
			if b.Iter != 0 {
				buf = strconv.AppendInt(append(buf, ",\n    \"iter\": "...), b.Iter, 10)
			}
			buf = append(buf, "\n   }"...)
		case evPhase, evFolded:
			if e.kind == evPhase {
				buf = append(buf, ",\n   \"cat\": \"phase\""...)
			} else {
				buf = append(buf, ",\n   \"cat\": \"folded\""...)
			}
			f := frags[e.ref]
			buf = append(buf, arena[f.mid:f.hi]...)
		case evRep:
			c := &v.Clusters[e.ref]
			buf = appendArgsHead(append(buf, ",\n   \"cat\": \"folded\""...), c.Label, c.Region)
			buf = append(buf, "\n   }"...)
		case evDiag:
			buf = append(buf, ",\n   \"cat\": \"diagnostic\",\n   \"s\": \"g\",\n   \"args\": {\n    \"message\": "...)
			buf = appendString(buf, v.Diagnostics[e.ref].Message)
			buf = append(buf, "\n   }"...)
		}
		buf = append(buf, "\n  }"...)
	}
	buf = append(buf, "\n ]\n}\n"...)
	_, err := w.Write(buf)
	return err
}

// perfettoEventBytes sizes the output buffer: rendered events average
// 235–285 bytes on the simulated apps, so one buffer usually suffices.
const perfettoEventBytes = 288

// processSuffix names each process after the app.
var processSuffix = [...]string{
	pidRanks:       " ranks",
	pidPhases:      " phases",
	pidClusters:    " clusters (folded)",
	pidDiagnostics: " diagnostics",
}

// appendArgsHead opens an args object with its cluster and region fields.
func appendArgsHead(b []byte, cluster int, region int64) []byte {
	b = strconv.AppendInt(append(b, ",\n   \"args\": {\n    \"cluster\": "...), int64(cluster), 10)
	return strconv.AppendInt(append(b, ",\n    \"region\": "...), region, 10)
}

// appendFloat appends f exactly as encoding/json encodes a float64: the
// shortest 'f' form, or 'e' form when 0 < |f| < 1e-6 or |f| >= 1e21, with a
// two-digit negative exponent shortened (e-09 → e-9). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends the concatenation of parts as a JSON string. Parts
// made only of printable ASCII that encoding/json leaves alone (no quote,
// backslash, or HTML-escaped <, >, &) are copied verbatim; anything else
// is encoded by encoding/json itself, so escaping stays exact.
func appendString(b []byte, parts ...string) []byte {
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			if c := p[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				q, _ := json.Marshal(strings.Join(parts, "")) // a string always marshals
				return append(b, q...)
			}
		}
	}
	b = append(b, '"')
	for _, p := range parts {
		b = append(b, p...)
	}
	return append(b, '"')
}
