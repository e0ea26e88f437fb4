package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the metrics by name with their units, then the result object
// on a line of its own.
func (r result) emit(w io.Writer, workload string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-20s %-40s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-20s %-40s %16.6g %s\n", workload, "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// parseResult reads a run's output and decodes its last line.
func parseResult(out io.Reader) (result, error) {
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var r result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return result{}, fmt.Errorf("last line is not a result object: %w", err)
	}
	return r, nil
}

// spec is BENCHMARK.json, as far as the benchmark itself reads it: the -aa
// check takes each end-to-end metric's bound from the file the driver uses,
// and the tests hold the metric lists against what the runs emit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return s, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return s, nil
}

// exactMetrics are simulated statistics: two runs of the same code and seed
// must agree on them to the last bit, whatever the host did.
var exactMetrics = map[string]bool{
	"wire_bytes_per_instr": true,
	"invokes_per_kinstr":   true,
	"modeled_speed_hz":     true,
}

// compareAA prints, per end-to-end metric and workload, how far two runs of
// the same code disagree against the metric's bound, and returns an error
// naming every pair beyond it.
func compareAA(w io.Writer, s spec, names []string, a, b map[string]result) error {
	var bad []string
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, wl := range names {
		for _, m := range s.EndToEnd {
			x, y := a[wl].Metrics[m.Name].Value, b[wl].Metrics[m.Name].Value
			diff := math.Abs(x-y) / math.Max(math.Abs(x), math.SmallestNonzeroFloat64)
			bound := m.Bound
			if exactMetrics[m.Name] {
				bound = 0
			}
			verdict := ""
			if diff > bound {
				verdict = "  EXCEEDS"
				bad = append(bad, wl+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %9.4f %7.2f%s\n", wl, m.Name, x, y, diff, bound, verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New("A/A pairs beyond their bound: " + strings.Join(bad, ", "))
	}
	return nil
}
