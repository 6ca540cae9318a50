package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeRestoresFromTempStateDir runs the -smoke self-test in process
// on the small serve-smoke configuration: without -state-dir it must
// restore through a temporary state dir, pass the golden comparison, and
// remove that dir on return.
func TestSmokeRestoresFromTempStateDir(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	args := strings.Fields("-smoke -T 16 -K 10 -classes 6 -sbs 2 -C 3 -B 10 -algo rhc -w 4")
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "smoke: PASS") {
		t.Fatalf("smoke output lacks PASS:\n%s", out.String())
	}
	m := regexp.MustCompile(`state dir (\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("smoke output names no state dir:\n%s", out.String())
	}
	if !strings.HasPrefix(m[1], os.Getenv("TMPDIR")) {
		t.Fatalf("smoke state dir %s is not a temporary directory", m[1])
	}
	if _, err := os.Stat(m[1]); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("smoke left its state dir %s behind (stat: %v)", m[1], err)
	}
}

// TestRunRejectsUnknownAlgorithm checks that a bad -algo fails before
// anything starts.
func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-smoke", "-algo", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("run with -algo bogus returned %v, want an unknown-algorithm error", err)
	}
}
