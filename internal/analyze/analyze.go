// Package analyze performs offline what-if analysis over dumped DUT traces
// — the SQL-backend use case of the tuning toolkit (paper §5): "DiffTest-H
// can also simulate order-decoupled fusion and differencing strategy on the
// software, thereby fully exploiting event correlations and reducing data
// transmission volume."
//
// Given a trace, it replays the record stream through a software-side
// Squash fuser and reports the achievable fusion ratio, the differencing
// savings per state-event kind, and the raw/optimized volume comparison —
// without re-running the DUT.
package analyze

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/event"
	"repro/internal/squash"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Result summarizes the what-if study.
type Result struct {
	Cycles uint64
	Events uint64

	RawBytes       uint64 // per-event baseline wire volume
	OptimizedBytes uint64 // volume after order-decoupled fusion + differencing

	Fusion squash.Stats

	// Per-kind accounting.
	RawByKind  [event.NumKinds]uint64
	DiffByKind [event.NumKinds]uint64
}

// Reduction returns the data-volume reduction factor.
func (r *Result) Reduction() float64 {
	if r.OptimizedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.OptimizedBytes)
}

// String renders the study as a report.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Offline Squash study: %d cycles, %d events ===\n", r.Cycles, r.Events)
	fmt.Fprintf(&sb, "raw per-event volume     : %d bytes\n", r.RawBytes)
	fmt.Fprintf(&sb, "fused+differenced volume : %d bytes (%.1fx reduction)\n",
		r.OptimizedBytes, r.Reduction())
	fmt.Fprintf(&sb, "fusion ratio             : %.1f commits/window (%d windows, %d NDEs ahead)\n",
		r.Fusion.FusionRatio(), r.Fusion.Windows, r.Fusion.NDEsAhead)

	var rows [][]string
	for k := event.Kind(0); k < event.NumKinds; k++ {
		if r.RawByKind[k] == 0 {
			continue
		}
		cell := "fused into digest"
		if r.DiffByKind[k] > 0 {
			cell = fmt.Sprintf("%d B (%.1fx)", r.DiffByKind[k],
				float64(r.RawByKind[k])/float64(r.DiffByKind[k]))
		}
		rows = append(rows, []string{
			k.String(), fmt.Sprint(r.RawByKind[k]), cell,
		})
	}
	sb.WriteString(stats.Table([]string{"Kind", "Raw bytes", "After differencing"}, rows))
	return sb.String()
}

// Trace replays a dumped trace through a software-side fuser (per core) and
// measures the achievable volume reduction.
func Trace(r *trace.Reader) (*Result, error) {
	res := &Result{}
	fusers := map[uint8]*squash.Fuser{}
	tok := uint64(0)

	account := func(items []wire.Item) {
		for _, it := range items {
			res.OptimizedBytes += uint64(it.WireSize())
			if k, ok := it.Kind(); ok && it.Type >= wire.TypeDiffBase {
				res.DiffByKind[k] += uint64(it.WireSize())
			}
		}
	}

	for {
		_, recs, err := r.ReadCycle()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Cycles++
		perCore := map[uint8][]event.Record{}
		perTok := map[uint8][]uint64{}
		for _, rec := range recs {
			res.Events++
			k := rec.Kind
			sz := uint64(event.SizeOf(k)) + 4 // per-event transfer header
			res.RawBytes += sz
			res.RawByKind[k] += sz
			perCore[rec.Core] = append(perCore[rec.Core], rec)
			perTok[rec.Core] = append(perTok[rec.Core], tok)
			tok++
		}
		for core, coreRecs := range perCore {
			f := fusers[core]
			if f == nil {
				f = squash.NewFuser(squash.DefaultConfig(), core)
				fusers[core] = f
			}
			account(f.Cycle(coreRecs, perTok[core]))
		}
	}
	for _, f := range fusers {
		account(f.Flush())
		res.Fusion.Windows += f.Stats.Windows
		res.Fusion.FusedCommits += f.Stats.FusedCommits
		res.Fusion.Breaks += f.Stats.Breaks
		res.Fusion.NDEsAhead += f.Stats.NDEsAhead
		res.Fusion.Diffs += f.Stats.Diffs
		res.Fusion.DiffBytes += f.Stats.DiffBytes
		res.Fusion.RawState += f.Stats.RawState
	}
	return res, nil
}
