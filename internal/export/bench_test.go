package export

import (
	"context"
	"io"
	"sync"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/simapp"
)

// BenchmarkExportView isolates the view construction.
func BenchmarkExportView(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := fixModel.Export(fixTrace); v == nil {
			b.Fatal("nil view")
		}
	}
}

var (
	renderOnce sync.Once
	renderView *core.ExportView
	renderErr  error
)

// BenchmarkRenderArtifacts times each artifact writer the daemon runs on a
// miss, on one 4-rank × 100-iteration multiphase view.
func BenchmarkRenderArtifacts(b *testing.B) {
	renderOnce.Do(func() {
		app, err := simapp.NewApp("multiphase")
		if err != nil {
			renderErr = err
			return
		}
		m, run, err := core.AnalyzeApp(context.Background(), app, goldenConfig(1), core.DefaultOptions())
		if err != nil {
			renderErr = err
			return
		}
		renderView = m.Export(run.Trace)
	})
	if renderErr != nil {
		b.Fatal(renderErr)
	}
	v := renderView
	writers := []struct {
		name  string
		write func(io.Writer, *core.ExportView) error
	}{
		{"perfetto", WritePerfetto},
		{"flamegraph", func(w io.Writer, v *core.ExportView) error { return WriteFlamegraph(w, v, WeightTime) }},
		{"openmetrics", WriteOpenMetrics},
		{"snapshot_json", WriteSnapshotJSON},
	}
	for _, wr := range writers {
		b.Run(wr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := wr.write(io.Discard, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
