package experiments

import (
	"fmt"

	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// PipelineOccupancy reports the executed pipeline's measured queue behavior
// per configuration: transfers, backpressure stalls (producer found the
// in-flight queue full), peak and mean queue occupancy, and the achieved
// hardware/software overlap. This is the host-side companion to Table 5 —
// the modeled table predicts speedups, this one shows the concurrency and
// buffering the executed pipeline actually delivered on this machine.
func PipelineOccupancy(instrs uint64) *Report {
	r := &Report{
		ID: "Pipeline", Title: "Executed pipeline occupancy (XiangShan/Palladium)",
		Header: []string{"Config", "Transfers", "Backpressure", "Queue peak", "Queue mean", "Overlap", "Executed"},
	}
	wl := scale(workload.LinuxBoot(), instrs)
	var ps []cosim.Params
	for _, cfg := range cosim.ConfigNames() {
		p := baseParams(dut.XiangShanDefault(), platform.Palladium(), cfg, wl)
		p.Opt.Executed = true
		ps = append(ps, p)
	}
	rs := runAll(ps)
	for i, cfg := range cosim.ConfigNames() {
		m := rs[i].Exec
		if m == nil {
			continue
		}
		r.Rows = append(r.Rows, []string{
			cfg,
			fmt.Sprint(m.Transfers),
			fmt.Sprint(m.Backpressure),
			fmt.Sprint(m.QueuePeak),
			fmt.Sprintf("%.1f", m.MeanQueueDepth()),
			pct(m.OverlapShare()),
			speedStr(rs[i].ExecutedHz),
		})
	}
	r.Notes = append(r.Notes,
		"backpressure counts producer sends that found the bounded queue full (blocking configs: every transfer stalls on the ack instead)")
	return r
}
