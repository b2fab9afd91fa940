package export

// The encoding/json Perfetto writer as it stood before the append-style
// writer replaced it, kept verbatim (identifiers renamed) as the oracle
// that FuzzPerfetto and TestWritePerfettoMatchesOracle hold the new writer
// to. Do not "fix" it: it defines the bytes.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"phasefold/internal/core"
	"phasefold/internal/sim"
)

// oracleEvent is one Chrome trace-event record. Field order (and the struct
// encoding) keeps the output deterministic for golden tests.
type oracleEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Cat  string  `json:"cat,omitempty"`
	S    string  `json:"s,omitempty"` // instant-event scope
	Args any     `json:"args,omitempty"`
}

// oracleFile is the JSON object format of a Chrome/Perfetto trace.
type oracleFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []oracleEvent `json:"traceEvents"`
}

func oracleUsec(t sim.Time) float64 { return float64(t) / 1e3 } // sim.Time is ns

// oracleMeta builds a process/thread naming metadata record.
func oracleMeta(kind string, pid, tid int, name string) oracleEvent {
	return oracleEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: struct {
			Name string `json:"name"`
		}{name},
	}
}

// oracleArgs annotates a burst or phase slice event.
type oracleArgs struct {
	Cluster int    `json:"cluster"`
	Region  int64  `json:"region"`
	Iter    int64  `json:"iter,omitempty"`
	Source  string `json:"source,omitempty"`
	Share   string `json:"share,omitempty"`
}

// oraclePerfetto renders the view as a Chrome trace-event / Perfetto JSON
// timeline: per-rank burst tracks, per-rank reconstructed phase tracks
// (each burst of a fitted cluster subdivided at the fitted breakpoints),
// one synthetic folded-burst track per cluster, and the diagnostics as
// instant events. Events within a track are sorted by timestamp and never
// overlap; timestamps are microseconds and displayTimeUnit is "ms". The
// output is deterministic for a given view.
func oraclePerfetto(w io.Writer, v *core.ExportView) error {
	file := oracleFile{DisplayTimeUnit: "ms"}
	ev := &file.TraceEvents

	// Process and thread naming metadata first, in pid/tid order.
	*ev = append(*ev, oracleMeta("process_name", pidRanks, 0, v.App+" ranks"))
	for r := 0; r < v.Ranks; r++ {
		*ev = append(*ev, oracleMeta("thread_name", pidRanks, r, fmt.Sprintf("rank %d", r)))
	}
	*ev = append(*ev, oracleMeta("process_name", pidPhases, 0, v.App+" phases"))
	for r := 0; r < v.Ranks; r++ {
		*ev = append(*ev, oracleMeta("thread_name", pidPhases, r, fmt.Sprintf("rank %d phases", r)))
	}
	if len(v.Clusters) > 0 {
		*ev = append(*ev, oracleMeta("process_name", pidClusters, 0, v.App+" clusters (folded)"))
		for _, c := range v.Clusters {
			*ev = append(*ev, oracleMeta("thread_name", pidClusters, c.Label,
				fmt.Sprintf("cluster %d", c.Label)))
		}
	}
	if len(v.Diagnostics) > 0 {
		*ev = append(*ev, oracleMeta("process_name", pidDiagnostics, 0, v.App+" diagnostics"))
	}

	phasesOf := make(map[int]*core.ExportCluster, len(v.Clusters))
	for i := range v.Clusters {
		c := &v.Clusters[i]
		if len(c.Phases) > 0 {
			phasesOf[c.Label] = c
		}
	}

	// Per-rank burst events plus the reconstructed phase slices: a burst in
	// a fitted cluster is subdivided at the cluster's normalized breakpoints
	// scaled into the burst's own [start, end) interval.
	for i := range v.Bursts {
		b := &v.Bursts[i]
		name := "noise"
		if b.Cluster >= 0 {
			name = fmt.Sprintf("cluster %d", b.Cluster)
		}
		*ev = append(*ev, oracleEvent{
			Name: name, Ph: "X", Ts: oracleUsec(b.Start), Dur: oracleUsec(b.End - b.Start),
			Pid: pidRanks, Tid: int(b.Rank), Cat: "burst",
			Args: oracleArgs{Cluster: b.Cluster, Region: b.Region, Iter: b.Iter},
		})
		c, ok := phasesOf[b.Cluster]
		if !ok {
			continue
		}
		span := float64(b.End - b.Start)
		for pi := range c.Phases {
			p := &c.Phases[pi]
			t0 := float64(b.Start) + p.X0*span
			t1 := float64(b.Start) + p.X1*span
			*ev = append(*ev, oracleEvent{
				Name: oraclePhaseName(p), Ph: "X",
				Ts: t0 / 1e3, Dur: (t1 - t0) / 1e3,
				Pid: pidPhases, Tid: int(b.Rank), Cat: "phase",
				Args: oraclePhaseArgs(c, p),
			})
		}
	}

	// Synthetic cluster tracks: the folded representative burst laid out
	// from t=0. A fitted cluster is drawn as its phase subdivision; an
	// unfitted one as a single representative slice. Either way the track
	// stays non-overlapping.
	for i := range v.Clusters {
		c := &v.Clusters[i]
		if c.RepDuration <= 0 {
			continue
		}
		if len(c.Phases) == 0 {
			*ev = append(*ev, oracleEvent{
				Name: fmt.Sprintf("cluster %d representative", c.Label), Ph: "X",
				Ts: 0, Dur: oracleUsec(c.RepDuration),
				Pid: pidClusters, Tid: c.Label, Cat: "folded",
				Args: oracleArgs{Cluster: c.Label, Region: c.Region},
			})
			continue
		}
		rep := float64(c.RepDuration)
		for pi := range c.Phases {
			p := &c.Phases[pi]
			*ev = append(*ev, oracleEvent{
				Name: oraclePhaseName(p), Ph: "X",
				Ts: p.X0 * rep / 1e3, Dur: (p.X1 - p.X0) * rep / 1e3,
				Pid: pidClusters, Tid: c.Label, Cat: "folded",
				Args: oraclePhaseArgs(c, p),
			})
		}
	}

	for i := range v.Diagnostics {
		d := &v.Diagnostics[i]
		*ev = append(*ev, oracleEvent{
			Name: d.Severity + ": " + d.Stage, Ph: "i", Ts: float64(i),
			Pid: pidDiagnostics, Tid: 0, Cat: "diagnostic", S: "g",
			Args: struct {
				Message string `json:"message"`
			}{d.Message},
		})
	}

	oracleSort(file.TraceEvents)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

func oraclePhaseName(p *core.ExportPhase) string {
	if p.Source != "" {
		return p.Source
	}
	return fmt.Sprintf("phase %d", p.Index)
}

func oraclePhaseArgs(c *core.ExportCluster, p *core.ExportPhase) oracleArgs {
	a := oracleArgs{Cluster: c.Label, Region: c.Region, Source: p.Source}
	if p.Share > 0 {
		a.Share = fmt.Sprintf("%.2f", p.Share)
	}
	return a
}

// sortEvents orders metadata first, then by (pid, tid, ts, dur descending)
// so each track reads monotonically and enclosing events precede enclosed
// ones — the layout trace viewers expect.
func oracleSort(evs []oracleEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Dur > b.Dur
	})
}
