package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"

	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// reproEnv switches the test binary into the child role of
// TestRunAppEncodingAcrossProcesses.
const reproEnv = "PHASEFOLD_REPRO_CHILD"

// reproDigest simulates multiphase on 4 ranks for 100 iterations (seed 3)
// after running other apps in the same process, and hashes the encoding.
func reproDigest(t *testing.T) string {
	t.Helper()
	for _, name := range []string{"cg", "stencil", "multiphase"} {
		app, err := simapp.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := RunApp(app, simapp.Config{Ranks: 4, Iterations: 100, Seed: 3, FreqGHz: 2}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if name != "multiphase" {
			continue
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, run.Trace); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	return ""
}

// TestRunAppEncodingAcrossProcesses checks that a simulated trace encodes to
// the same bytes in every process: the test binary re-runs itself twice and
// each child reports its digest.
func TestRunAppEncodingAcrossProcesses(t *testing.T) {
	if os.Getenv(reproEnv) != "" {
		os.Stdout.WriteString("digest=" + reproDigest(t) + "\n")
		return
	}
	want := reproDigest(t)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestRunAppEncodingAcrossProcesses$", "-test.count", "1")
		cmd.Env = append(os.Environ(), reproEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		_, after, ok := strings.Cut(string(out), "digest=")
		if !ok {
			t.Fatalf("child %d printed no digest:\n%s", i, out)
		}
		if got, _, _ := strings.Cut(after, "\n"); got != want {
			t.Fatalf("child %d encoded digest %s, this process %s", i, got, want)
		}
	}
}
