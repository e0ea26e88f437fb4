package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestIgnoreJustified: well-formed directives suppress exactly their line
// and nothing else.
func TestIgnoreJustified(t *testing.T) {
	linttest.Run(t, "testdata/ignore", lint.KindSwitch)
}

// TestIgnoreRejections: directives with no reason, an unknown analyzer, or
// nothing to suppress are findings themselves, and a rejected directive
// does not silence the underlying diagnostic. (These findings land on the
// directive's own comment line, where a `// want` comment cannot sit, so
// they are asserted programmatically.)
func TestIgnoreRejections(t *testing.T) {
	pkg, err := lint.Typecheck(linttest.Config(t, "testdata/ignorebad"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkg, []*lint.Analyzer{lint.KindSwitch})
	if err != nil {
		t.Fatal(err)
	}

	wantSubstrings := map[string]string{
		"no reason":        "gives no reason",
		"unknown analyzer": `unknown analyzer "kindswich"`,
		"unused directive": "suppresses nothing",
	}
	for label, sub := range wantSubstrings {
		if countMatching(findings, lint.DriverName, sub) != 1 {
			t.Errorf("%s: want exactly one %q driver finding, got:\n%s",
				label, sub, dump(findings))
		}
	}
	// The rejected directives must not have suppressed the two partial
	// switches beneath them; the defaulted switch stays clean.
	if n := countMatching(findings, "kindswitch", "covers 1 of 32 kinds"); n != 2 {
		t.Errorf("want 2 surviving kindswitch findings, got %d:\n%s", n, dump(findings))
	}
	if len(findings) != 5 {
		t.Errorf("want 5 findings total, got %d:\n%s", len(findings), dump(findings))
	}
}

func countMatching(findings []lint.Finding, analyzer, sub string) int {
	n := 0
	for _, f := range findings {
		if f.Analyzer == analyzer && strings.Contains(f.Message, sub) {
			n++
		}
	}
	return n
}

func dump(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
