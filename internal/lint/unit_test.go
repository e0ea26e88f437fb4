package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestVetToolHandshake covers the -V=full / -flags fingerprint protocol and
// the usage exit for anything else.
func TestVetToolHandshake(t *testing.T) {
	var out, errw bytes.Buffer
	code := lint.RunVetTool("difftestlint", []string{"-V=full"}, &out, &errw)
	if code != 0 || !strings.Contains(out.String(), "difftestlint version") {
		t.Errorf("-V=full: code=%d out=%q", code, out.String())
	}

	out.Reset()
	code = lint.RunVetTool("difftestlint", []string{"-flags"}, &out, &errw)
	if code != 0 || strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-flags: code=%d out=%q", code, out.String())
	}

	out.Reset()
	code = lint.RunVetTool("difftestlint", []string{"./..."}, &out, &errw)
	if code != 2 || out.Len() != 0 || !strings.Contains(errw.String(), "go vet -vettool") {
		t.Errorf("plain patterns: code=%d stdout=%q stderr=%q, want exit 2 with a go vet usage line",
			code, out.String(), errw.String())
	}
}

// TestVetToolUnit drives the unitchecker path in-process with a real vet
// config: export data resolved through `go list -export`, the kindswitch
// fixture's partial switches, and the vet exit-code convention
// (2 = findings).
func TestVetToolUnit(t *testing.T) {
	dir := t.TempDir()
	cfg := linttest.Config(t, "testdata/kindswitch")
	cfg.VetxOutput = filepath.Join(dir, "p.vetx")
	cfgFile := filepath.Join(dir, "vet.cfg")
	writeCfg := func() {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfgFile, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg()

	var stdout, stderr bytes.Buffer
	code := lint.RunVetTool("difftestlint", []string{cfgFile}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stdout.String(), "covers 1 of 32 kinds") {
		t.Errorf("unit run: code=%d stdout=%q stderr=%q (want code 2 with a kindswitch finding)",
			code, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(cfg.VetxOutput); err != nil {
		t.Errorf("facts file not written: %v", err)
	}

	// VetxOnly deps produce facts only — no analysis, exit 0.
	cfg.VetxOnly = true
	writeCfg()
	stdout.Reset()
	if code := lint.RunVetTool("difftestlint", []string{cfgFile}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("VetxOnly: code=%d stdout=%q", code, stdout.String())
	}

	// A file that fails to parse succeeds silently when the go command asks
	// for it (it reports the syntax error itself), and fails the tool when
	// it does not.
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\nfunc {"), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg.VetxOnly = false
	cfg.GoFiles = []string{src}
	cfg.SucceedOnTypecheckFailure = true
	writeCfg()
	if code := lint.RunVetTool("difftestlint", []string{cfgFile}, &stdout, &stderr); code != 0 {
		t.Errorf("SucceedOnTypecheckFailure: code=%d stderr=%q", code, stderr.String())
	}
	cfg.SucceedOnTypecheckFailure = false
	writeCfg()
	stderr.Reset()
	if code := lint.RunVetTool("difftestlint", []string{cfgFile}, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
		t.Errorf("parse failure: code=%d stderr=%q, want exit 1 with the error", code, stderr.String())
	}
}
