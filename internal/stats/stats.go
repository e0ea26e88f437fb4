// Package stats renders the DiffTest-H tuning toolkit's reports (paper §5,
// "Performance evaluation support"): the counters themselves live on
// cosim.Result, and Table lays them out as aligned text.
package stats

import (
	"fmt"
	"strings"
)

// Table formats rows of columns with aligned widths — the report helper the
// experiment harnesses share.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		sb.WriteByte('\n')
	}
	line(header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}
