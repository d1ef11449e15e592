package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: the Figure 5 campaign takes only its science
// flags, so a checkpoint or deadline flag exits 2 before any experiment
// runs.
func TestUsageErrorsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "maxnvm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-checkpoint", "x", "fig5"}, "flag provided but not defined: -checkpoint"},
		{[]string{"-timeout", "1s", "fig5"}, "flag provided but not defined: -timeout"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("maxnvm %q: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("maxnvm %q: stderr %q, want %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("maxnvm %q: ran an experiment before rejecting its flags: %q", tc.args, stdout.String())
		}
	}
}
