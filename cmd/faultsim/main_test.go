package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// bin is the faultsim binary TestMain builds once for every test here.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "faultsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "faultsim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestUsageErrorsExit2: an unknown flag, a flag conflict, -resume
// without -checkpoint and a stream the encoding does not store each
// exit 2 before the training phase starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "2"}, "flag provided but not defined: -fleet"},
		{[]string{"-lock=false"}, "flag provided but not defined: -lock"},
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

// TestCheckpointHoldsEveryConfig: a multi-config mode checkpoints the
// trials of all its configs into one file, and a resume over it
// executes nothing and prints the same aggregates.
func TestCheckpointHoldsEveryConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		configs int
	}{
		{"compare", []string{"-compare-encodings"}, 3},
		{"crossbar", []string{"-crossbar", "-tile", "64x32,128x64"}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "c.jsonl")
			args := append([]string{"-trials", "2", "-progress", "0", "-checkpoint", ckpt}, tc.args...)
			first := runFaultsim(t, args...)
			recs, _, err := campaign.ReadCheckpoint(nil, ckpt, 100, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			perConfig := map[string]int{}
			for _, r := range recs {
				perConfig[r.Config]++
			}
			if len(perConfig) != tc.configs {
				t.Fatalf("checkpoint holds %d configs %v, want %d", len(perConfig), perConfig, tc.configs)
			}
			for c, n := range perConfig {
				if n != 2 {
					t.Errorf("config %q: %d records, want 2", c, n)
				}
			}

			before, err := os.Stat(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			resumed := runFaultsim(t, append(args, "-resume")...)
			after, err := os.Stat(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Errorf("resume appended %d bytes to a complete checkpoint", after.Size()-before.Size())
			}
			want := fmt.Sprintf("replayed %d trials", 2*tc.configs)
			if !strings.Contains(resumed, want) {
				t.Errorf("resume output lacks %q:\n%s", want, resumed)
			}
			if a, b := aggregates(first), aggregates(resumed); a != b {
				t.Errorf("resume changed the aggregates\n--- first ---\n%s--- resumed ---\n%s", a, b)
			}
		})
	}
}

func runFaultsim(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("faultsim %q: %v", args, err)
	}
	return string(out)
}

// aggregates drops what a resume may change from faultsim's stdout: the
// recovery line, the timing of the crossbar footer and the ms/trial
// column of the encoding comparison.
func aggregates(stdout string) string {
	var b strings.Builder
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "recovery:"):
			continue
		case strings.Contains(line, "fault maps per cell"):
			line = line[:strings.Index(line, ",")]
		case len(f) == 7 && strings.HasSuffix(f[1], "%"):
			line = strings.Join(append(f[:4:4], f[5:]...), " ")
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}
