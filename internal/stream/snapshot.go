package stream

import (
	"sort"

	"phasefold/internal/cluster"
	"phasefold/internal/counters"
	"phasefold/internal/folding"
	"phasefold/internal/pwl"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// PhasePreview is one provisional phase of a forming cluster: an interval of
// normalized burst time with a roughly constant instruction rate.
type PhasePreview struct {
	X0, X1 float64
	// Slope is the fitted normalized instruction slope over [X0, X1);
	// multiplied by the cluster's rate scale it becomes an absolute rate.
	Slope float64
}

// ClusterState is the live view of one provisional cluster.
type ClusterState struct {
	// Label is the provisional cluster label (frozen-model labels; the
	// final Done result re-clusters and may relabel).
	Label int
	// Bursts counts members so far.
	Bursts int
	// RepDuration is the representative (median) member duration.
	RepDuration sim.Duration
	// Points is the folded instruction-cloud size backing the preview fit.
	Points int
	// Fitted reports whether the cloud was dense enough for a preview
	// regression; Breakpoints and Phases are only meaningful when set.
	Fitted      bool
	Breakpoints []float64
	Phases      []PhasePreview
}

// Snapshot is a point-in-time view of the analysis forming inside a session.
// It is a snapshot of provisional state: cluster labels come from the frozen
// assignment model and are overwritten by the full re-clustering Done runs.
type Snapshot struct {
	// Bursts counts computation bursts completed so far.
	Bursts int
	// Buffered is the current pending-record buffer; Peak its high water.
	Buffered, Peak int
	// Trained reports whether the provisional assignment model exists yet
	// (it is trained once TrainAfter bursts have completed); TrainedOn is
	// the population it was last trained on.
	Trained   bool
	TrainedOn int
	// Clusters counts the frozen model's clusters; Noise the bursts the
	// model could not place since it was last trained.
	Clusters, Noise int
	// States describes each provisional cluster, ascending by label.
	States []ClusterState
}

// Snapshot returns the current provisional view, recomputing it when at
// least SnapshotEvery bursts landed since the previous computation (and
// training or retraining the provisional clustering model when due).
// Sessions that were never snapshotted pay nothing for the mechanism.
func (s *Session) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished || s.failed != nil {
		return s.snap
	}
	s.maybeTrain()
	total := s.in.NumBursts()
	if s.snap != nil && total-s.snapAt < s.opt.SnapshotEvery {
		return s.snap
	}
	s.snap = s.computeSnapshot(total)
	s.snapAt = total
	return s.snap
}

// maybeTrain trains the provisional assignment model once enough bursts
// completed, and retrains it when the stream drifted away from it (the
// re-cluster fallback: too many arriving bursts land as noise).
func (s *Session) maybeTrain() {
	total := s.in.NumBursts()
	retrain := s.assignor == nil && total >= s.opt.TrainAfter
	if s.assignor != nil && s.assigned >= 32 &&
		float64(s.noise) > reclusterNoiseFrac*float64(s.assigned) &&
		total >= 2*s.assignor.TrainedOn() {
		retrain = true
	}
	if !retrain {
		return
	}
	// Train on copies: the training pass writes labels, and the authoritative
	// relabelling of the session's own bursts goes through Assign below so
	// every burst — trained-on or later — is labelled by the same rule.
	pop := make([]trace.Burst, 0, total)
	s.in.EachBurst(func(b *trace.Burst) { pop = append(pop, *b) })
	if len(pop) == 0 {
		return
	}
	a, err := cluster.TrainAssignor(s.ctx, pop, s.opt.Core.Features, s.opt.Core.DBSCAN)
	if err != nil {
		return // not enough signal yet; try again at the next snapshot
	}
	s.assignor = a
	s.assigned, s.noise = 0, 0
	s.in.EachBurst(s.assign)
}

func (s *Session) computeSnapshot(total int) *Snapshot {
	snap := &Snapshot{
		Bursts:   total,
		Buffered: s.in.Buffered(),
		Peak:     s.in.Peak(),
	}
	if s.assignor == nil {
		return snap
	}
	snap.Trained = true
	snap.TrainedOn = s.assignor.TrainedOn()
	snap.Clusters = s.assignor.NumClusters()
	snap.Noise = s.noise

	// Assemble the provisional population once; FoldWith selects each
	// label's members from it.
	bursts := make([]trace.Burst, 0, total)
	labels := map[int]bool{}
	s.in.EachBurst(func(b *trace.Burst) {
		bursts = append(bursts, *b)
		if b.Cluster >= 0 {
			labels[b.Cluster] = true
		}
	})
	project := s.in.Projector()
	order := make([]int, 0, len(labels))
	for l := range labels {
		order = append(order, l)
	}
	sort.Ints(order)
	for _, l := range order {
		st := ClusterState{Label: l}
		for i := range bursts {
			if bursts[i].Cluster == l {
				st.Bursts++
			}
		}
		f, err := folding.FoldWith(project, bursts, l, s.opt.Core.Folding)
		if err == nil {
			st.RepDuration = f.RepDuration
			st.Points = f.NumPoints(counters.Instructions)
			if st.Points >= s.opt.Core.MinFoldedPoints {
				s.previewFit(&st, f)
			}
		}
		snap.States = append(snap.States, st)
	}
	return snap
}

// previewFit regresses the instruction cloud into the provisional phase
// boundaries. Failures just leave the state unfitted — a snapshot never
// degrades the session.
func (s *Session) previewFit(st *ClusterState, f *folding.Folded) {
	pts := f.Points[counters.Instructions]
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	fit, err := pwl.FitContext(s.ctx, xs, ys, s.opt.Core.PWL)
	if err != nil {
		return
	}
	st.Fitted = true
	st.Breakpoints = fit.Breakpoints
	for _, seg := range fit.Segments() {
		st.Phases = append(st.Phases, PhasePreview{X0: seg.X0, X1: seg.X1, Slope: seg.Slope})
	}
}
