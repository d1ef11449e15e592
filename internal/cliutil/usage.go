package cliutil

import (
	"fmt"
	"os"
)

// Usagef reports a usage error, a bad flag value or a conflicting flag
// combination: it prints the message to standard error and exits 2, the
// status the flag package gives its own parse errors.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// CheckResume rejects -resume without -checkpoint as a usage error of
// the command cmd.
func CheckResume(cmd string, resume bool, checkpoint string) {
	if resume && checkpoint == "" {
		Usagef("%s: -resume requires -checkpoint", cmd)
	}
}

// ExitInterrupted ends an interrupted campaign whose partial aggregates
// are printed above: it tells stdout how to finish them (rerun with
// -resume -checkpoint, or set -checkpoint to make such runs resumable),
// writes the telemetry dump os.Exit would skip, and exits 130.
func (t *Telemetry) ExitInterrupted(checkpoint string) {
	if checkpoint != "" {
		fmt.Printf("interrupted: partial aggregates above; rerun with -resume -checkpoint %s to finish\n", checkpoint)
	} else {
		fmt.Println("interrupted: partial aggregates above (set -checkpoint to make runs resumable)")
	}
	t.Dump()
	os.Exit(130)
}
