package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// chunkingApps are the workloads FuzzStreamChunking draws from: small
// enough to analyze in milliseconds, varied in region structure.
var chunkingApps = []string{"multiphase", "cg", "stencil", "nbody", "amr"}

// chunkingTraces caches the encoded fuzz inputs by (app, iterations).
var chunkingTraces sync.Map

func chunkingTrace(t *testing.T, app string, iters int) []byte {
	key := fmt.Sprintf("%s/%d", app, iters)
	if v, ok := chunkingTraces.Load(key); ok {
		return v.([]byte)
	}
	a, err := simapp.NewApp(app)
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.RunApp(a, simapp.Config{Ranks: 4, Iterations: iters, Seed: 3, FreqGHz: 2}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		t.Fatal(err)
	}
	chunkingTraces.Store(key, buf.Bytes())
	return buf.Bytes()
}

// FuzzStreamChunking holds a streamed session to batch Analyze over the same
// bytes: any chunk limit, any interleaving of the ranks' chunks (each rank's
// own in stream order), any Parallelism from 1 to 4 gives the model batch
// gives serially.
func FuzzStreamChunking(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(4096), uint64(1), uint8(0))
	f.Add(uint8(1), uint8(1), uint16(1), uint64(2), uint8(1))
	f.Add(uint8(2), uint8(0), uint16(7), uint64(3), uint8(2))
	f.Add(uint8(3), uint8(1), uint16(64), uint64(4), uint8(3))
	f.Add(uint8(4), uint8(0), uint16(333), uint64(5), uint8(1))
	f.Fuzz(func(t *testing.T, app, size uint8, limit uint16, order uint64, par uint8) {
		data := chunkingTrace(t, chunkingApps[int(app)%len(chunkingApps)], 20+20*int(size%2))
		ctx := context.Background()
		tr, _, err := trace.Decode(ctx, bytes.NewReader(data), trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		serial, err := core.Analyze(ctx, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Parallelism = 1 + int(par%4)
		parallel, err := core.Analyze(ctx, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("batch at Parallelism %d differs from serial", opt.Parallelism)
		}

		cr, err := trace.NewChunkReader(ctx, bytes.NewReader(data), trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		perRank := make([][]trace.Chunk, cr.NumRanks())
		for {
			c, err := cr.Next(1 + int(limit))
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			perRank[c.Rank] = append(perRank[c.Rank], c)
		}
		s, err := New(ctx, Header{App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks()}, Options{Core: opt})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(order)))
		for {
			var live []int
			for r := range perRank {
				if len(perRank[r]) > 0 {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				break
			}
			r := live[rng.Intn(len(live))]
			if err := s.Feed(perRank[r][0]); err != nil {
				t.Fatal(err)
			}
			perRank[r] = perRank[r][1:]
		}
		streamed, err := s.Done()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, streamed) {
			t.Fatalf("streamed model differs from batch (limit %d, order %d, Parallelism %d)", 1+int(limit), order, opt.Parallelism)
		}
	})
}
