package trace_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// simappTrace encodes a simulated cg run, 4 ranks × 400 iterations sampled
// every millisecond: the largest trace the batch benchmark ladder decodes,
// with every counter and the stack table a real run produces (the
// synthetic fixture of BenchmarkDecodeBinary carries two counters).
func simappTrace(b *testing.B) []byte {
	b.Helper()
	app, err := simapp.NewApp("cg")
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.SamplingPeriod = sim.Millisecond
	run, err := core.RunApp(app, simapp.Config{Ranks: 4, Iterations: 400, Seed: 11, FreqGHz: 2}, opt)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkDecodeSimapp times the three ways a simulated trace is read:
// strict and salvage Decode (salvage also sanitizes every rank) and the
// chunked ChunkReader drain a streaming session runs.
func BenchmarkDecodeSimapp(b *testing.B) {
	raw := simappTrace(b)
	ctx := context.Background()
	for _, mode := range []struct {
		name    string
		salvage bool
	}{{"strict", false}, {"salvage", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.Decode(ctx, bytes.NewReader(raw), trace.DecodeOptions{Salvage: mode.salvage}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("chunked", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			cr, err := trace.NewChunkReader(ctx, bytes.NewReader(raw), trace.DecodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := cr.Next(0); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
