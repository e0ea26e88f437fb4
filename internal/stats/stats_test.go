package stats

import (
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{{"a", "1"}, {"bb", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("no rule line: %q", lines[1])
	}
}
