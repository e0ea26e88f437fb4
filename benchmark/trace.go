package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// counts is the work a span covers.
type counts struct {
	Calls   uint64 `json:"calls"`
	Records uint64 `json:"records,omitempty"`
	Items   uint64 `json:"items,omitempty"`
	Packets uint64 `json:"packets,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

func (c *counts) add(o counts) {
	c.Calls += o.Calls
	c.Records += o.Records
	c.Items += o.Items
	c.Packets += o.Packets
	c.Bytes += o.Bytes
}

// layerAcc aggregates the timed calls into one layer.
type layerAcc struct {
	start, end int64 // first call's start, last call's end
	busy       int64 // Σ call durations
	counts
}

// span is one trace record. An "op" span is the root of one re-driven op and
// covers it wall to wall. A layer span is a child of its op's root and
// aggregates every call into that layer during one chunk of DUT cycles:
// start_ns/end_ns bracket the calls, busy_ns is the time spent inside them
// (layers interleave cycle by cycle, so sibling brackets overlap; busy times
// do not).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	OpID    int    `json:"op_id"`
	Chunk   int    `json:"chunk"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Counts  counts `json:"counts"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	spans []span
}

// add stores a span and returns its id.
func (r *recorder) add(s span) int {
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// finish closes a root span: it was busy for its whole duration.
func (r *recorder) finish(id int, end int64) {
	s := &r.spans[id]
	s.EndNs = end
	s.BusyNs = end - s.StartNs
}

// selfTimes returns each span's busy time minus the busy time of its
// children: for a root, the glue between layer calls plus the clock reads.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.BusyNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.BusyNs
		}
	}
	return self
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
