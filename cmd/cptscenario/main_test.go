package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBeforeGeneration runs the built binary: a spec file with a
// source-field value no run can open with, and a bad run-wide decode
// override, must exit 1 naming the field before anything is generated — no
// output file, no spill directory.
func TestRefusesBeforeGeneration(t *testing.T) {
	dir, bin := build(t)
	specs := 0
	spec := func(source string) string {
		specs++
		path := filepath.Join(dir, fmt.Sprintf("spec-%d.json", specs))
		body := `{"name":"bad","generation":"4G","seed":1,"horizon_sec":60,"population":8,"sources":[` + source + `]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", spec(`{"id":"s","share":1,"start_hour":99}`)}, "StartHour"},
		{[]string{"-spec", spec(`{"id":"s","share":1,"device_mix":{"phone":-1}}`)}, "device_mix"},
		{[]string{"-spec", spec(`{"id":"s","share":1,"device_mix":{"phone":0,"tablet":0}}`)}, "device_mix"},
		{[]string{"-spec", spec(`{"id":"s","share":1,"kind":"cptgpt","model_file":"no-such-model.bin","device":"toaster"}`)}, "device"},
		{[]string{"-spec", "flash-crowd", "-speculative", "maybe"}, "speculative"},
		{[]string{"-spec", "flash-crowd", "-precision", "f16"}, "precision"},
		{[]string{"-spec", "flash-crowd", "-draft-k", "-1"}, "draft-tokens"},
		{[]string{"-list", "-speculative", "maybe"}, "speculative"},
		{[]string{"-spec", "flash-crowd", "-compression", "-1"}, "-compression"},
		{[]string{"-spec", "flash-crowd", "-compression", "60", "-slo-p99", "50ms"}, "-compression conflicts with -slo-p99"},
	} {
		out := filepath.Join(dir, "out.jsonl")
		tmp := filepath.Join(dir, "spill")
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, append(c.args, "-ues", "8", "-sink", "jsonl", "-out", out, "-tmp", tmp)...)
		msg, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1\n%s", c.args, err, msg)
		}
		if !strings.Contains(string(msg), c.want) {
			t.Errorf("%v: output does not name %q:\n%s", c.args, c.want, msg)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v: wrote %s", c.args, out)
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%v: left %d entries in the spill directory", c.args, len(left))
		}
		os.RemoveAll(tmp)
		os.Remove(out)
	}
}

// build compiles the tool into a fresh directory and returns both.
func build(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns the binary")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "cptscenario")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// TestCompression: -compression paces any sink without moving an output
// byte (a file run at 36000× equals the unpaced one), and the flag it
// replaced is gone — -speedup is a usage error, exit 2.
func TestCompression(t *testing.T) {
	dir, bin := build(t)
	run := func(args ...string) ([]byte, error) {
		return exec.Command(bin, args...).CombinedOutput()
	}
	msg, err := run("-spec", "flash-crowd", "-ues", "40", "-sink", "replay", "-replay-self", "-speedup", "600")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(msg), "speedup") {
		t.Errorf("-speedup: err %v, want exit status 2 naming the flag\n%s", err, msg)
	}
	var outs [2][]byte
	for i, extra := range [][]string{nil, {"-compression", "36000"}} {
		out := filepath.Join(dir, fmt.Sprintf("out-%d.jsonl", i))
		if msg, err := run(append([]string{"-spec", "flash-crowd", "-ues", "40", "-sink", "jsonl", "-out", out}, extra...)...); err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, msg)
		}
		if outs[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if len(outs[0]) == 0 || !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("paced output (%d bytes) differs from unpaced (%d bytes)", len(outs[1]), len(outs[0]))
	}
}
