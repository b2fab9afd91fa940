package core

import (
	"context"

	"phasefold/internal/obs"
)

// Stage span names, as they appear in manifests and the stage-duration
// histogram's stage label. DESIGN.md documents the mapping from pipeline
// stage to span and metric names; keep the two in sync.
const (
	spanAnalyze = "analyze"
	spanPrepare = "prepare"
	spanExtract = "extract"
	spanCluster = "cluster"
	spanSPMD    = "spmd"
	spanFold    = "fold"
	spanFit     = "fit"
)

// startStage opens one pipeline-stage span under ctx. The returned closer
// stamps the span and feeds the per-stage duration histogram; both the
// span and the closer are inert when ctx carries no telemetry.
func startStage(ctx context.Context, name string) (context.Context, *obs.Span, func()) {
	sctx, span := obs.StartSpan(ctx, name)
	end := func() {
		if span == nil {
			return
		}
		span.End()
		obs.Metrics(ctx).Histogram(obs.MetricStageDuration,
			"Pipeline stage wall-clock time in seconds.", obs.DurationBuckets(),
			obs.Label{K: "stage", V: name}).Observe(span.Duration().Seconds())
	}
	return sctx, span, end
}

// recordStageThroughput stamps records-per-second on a still-open stage span
// and mirrors it to the stage-throughput gauge, where the OTLP exporter and
// the Prometheus exposition both pick it up. Call it before the stage's end
// closure so the attribute lands inside the span. Inert when the span is nil
// or no measurable time has elapsed.
func recordStageThroughput(ctx context.Context, span *obs.Span, stage string, records int64) {
	if span == nil || records <= 0 {
		return
	}
	sec := span.Duration().Seconds()
	if sec <= 0 {
		return
	}
	rps := float64(records) / sec
	span.SetAttr("records_per_sec", rps)
	obs.Metrics(ctx).Gauge(obs.MetricStageThroughput,
		"Records processed per second by the last pass of each stage.",
		obs.Label{K: "stage", V: stage}).Set(rps)
}
