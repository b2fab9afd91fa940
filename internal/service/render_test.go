package service

import (
	"bytes"
	"context"
	"io"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/export"
	"phasefold/internal/trace"
)

// TestRenderArtifactsMatchExportWriters: every artifact a miss publishes is
// byte-identical to the export package's standalone writer for the same
// view, including the two metric snapshots renderArtifacts writes from one
// shared registry.
func TestRenderArtifactsMatchExportWriters(t *testing.T) {
	for name, data := range map[string][]byte{
		"pristine": pristineTrace(t),
		"damaged":  faulted(t, pristineTrace(t), "drop=0.2,chop=0.3", 5),
	} {
		tr, _, err := trace.Decode(context.Background(), bytes.NewReader(data), trace.DecodeOptions{Salvage: true})
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		m, err := core.Analyze(context.Background(), tr, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		view := m.Export(tr)
		arts := renderArtifacts(view)
		for art, write := range map[string]func(io.Writer, *core.ExportView) error{
			artifactPerfetto:     export.WritePerfetto,
			artifactFlame:        func(w io.Writer, v *core.ExportView) error { return export.WriteFlamegraph(w, v, "") },
			artifactSnapshot:     export.WriteOpenMetrics,
			artifactSnapshotJSON: export.WriteSnapshotJSON,
		} {
			var want bytes.Buffer
			if err := write(&want, view); err != nil {
				t.Fatalf("%s/%s: %v", name, art, err)
			}
			got, ok := arts[art]
			if !ok {
				t.Errorf("%s: artifact %s missing", name, art)
				continue
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: artifact %s (%d bytes) differs from its writer (%d bytes)", name, art, len(got), want.Len())
			}
		}
		if len(arts) != 4 {
			t.Errorf("%s: %d artifacts, want 4", name, len(arts))
		}
	}
}
