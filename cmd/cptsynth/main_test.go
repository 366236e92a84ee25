package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrecisionFlagRemoved runs the built binary: CPT-GPT decodes in float32
// only, so -precision is a flag cptsynth does not know (exit 2), whatever
// its value, and nothing is written.
func TestPrecisionFlagRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cptsynth")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "out.jsonl")
	for _, v := range []string{"f32", "f64"} {
		msg, err := exec.Command(bin, "-precision", v, "-out", out).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("-precision %s: err %v, want exit status 2\n%s", v, err, msg)
		}
		if !strings.Contains(string(msg), "flag provided but not defined: -precision") {
			t.Errorf("-precision %s: output does not name the unknown flag:\n%s", v, msg)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("-precision %s: wrote %s", v, out)
		}
	}
}
