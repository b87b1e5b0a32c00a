package netbandit_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusionFreeFiles are the source files whose float results must not depend
// on fused multiply-add: the contextual path's ridge model, scores and
// posterior draw, and the per-round means they are scored against.
var fusionFreeFiles = []string{
	"internal/policy/linear.go",
	"internal/policy/linucb.go",
	"internal/policy/ctxthompson.go",
	"internal/bandit/context.go",
}

// fusedARM64 matches the arm64 scalar fused multiply-add family in
// `go tool objdump` output.
var fusedARM64 = regexp.MustCompile(`\bFN?M(ADD|SUB)[DS]\b`)

// TestContextualPathHasNoFusedFloatOps cross-compiles cmd/nbandit for
// arm64, where the Go compiler fuses x*y + z unless an explicit float64
// conversion rounds the product, and fails on any fused instruction that
// the disassembly attributes to fusionFreeFiles. amd64 never fuses, so
// this is the check that arm64 hosts compute the same bits as amd64.
// Cross-compiling needs no arm64 host and no network.
func TestContextualPathHasNoFusedFloatOps(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles cmd/nbandit for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	bin := filepath.Join(t.TempDir(), "nbandit-arm64")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/nbandit")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	dis, err := exec.Command(goBin, "tool", "objdump", bin).Output()
	if err != nil {
		t.Fatalf("objdump: %v", err)
	}
	for _, site := range fusedSites(dis, fusionFreeFiles) {
		t.Errorf("fused multiply-add at %s", site)
	}
}

// fusedSites scans objdump output and returns "file:line in symbol
// (instruction)" for every fused instruction inside a netbandit function
// whose line is attributed to one of files. objdump names only the base of
// an instruction's file, so the scan keys on base names and skips symbols
// outside the module, which could share them.
func fusedSites(dis []byte, files []string) []string {
	bases := map[string]bool{}
	for _, f := range files {
		bases[filepath.Base(f)] = true
	}
	var sites []string
	var symbol string
	sc := bufio.NewScanner(bytes.NewReader(dis))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			symbol, _, _ = strings.Cut(rest, " ")
			continue
		}
		if !strings.HasPrefix(symbol, "netbandit") || !fusedARM64.MatchString(line) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		file, _, _ := strings.Cut(fields[0], ":")
		if bases[file] {
			sites = append(sites, fields[0]+" in "+symbol+" ("+strings.Join(fields[3:], " ")+")")
		}
	}
	return sites
}
