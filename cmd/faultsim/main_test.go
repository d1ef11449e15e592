package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: an unknown flag, a flag conflict, -resume
// without -checkpoint and a stream the encoding does not store each
// exit 2 before the training phase starts.
func TestUsageErrorsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "faultsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "2"}, "flag provided but not defined: -fleet"},
		{[]string{"-compare-encodings", "-ecc", "rowcount"}, "-compare-encodings runs bare per-encoding configs"},
		{[]string{"-crossbar", "-lifetime-years", "1"}, "-crossbar models faults in the compute arrays"},
		{[]string{"-resume"}, "-resume requires -checkpoint"},
		{[]string{"-ecc", "rowcnt"}, `override stream "rowcnt"`},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("faultsim %q: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("faultsim %q: stderr %q, want %q", tc.args, stderr.String(), tc.want)
		}
		if strings.Contains(stdout.String(), "training") {
			t.Errorf("faultsim %q: started training before rejecting its flags", tc.args)
		}
	}
}
