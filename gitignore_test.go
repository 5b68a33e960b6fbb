package hybriddtm

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoIgnoredGoFiles fails when a .gitignore pattern hides a Go source
// file: such a file builds locally but never reaches a fresh clone, which
// then fails to build. (An unanchored `experiments` pattern, meant for the
// root binary, once hid a file under internal/experiments this way.)
func TestNoIgnoredGoFiles(t *testing.T) {
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed")
	}
	if out, err := exec.Command(git, "rev-parse", "--is-inside-work-tree").Output(); err != nil ||
		strings.TrimSpace(string(out)) != "true" {
		t.Skip("not a git work tree")
	}
	out, err := exec.Command(git, "ls-files", "-o", "-i", "--exclude-standard", "--", "*.go").CombinedOutput()
	if err != nil {
		t.Fatalf("git ls-files: %v\n%s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("Go files hidden by .gitignore (a fresh clone would not have them):\n%s", files)
	}
}
