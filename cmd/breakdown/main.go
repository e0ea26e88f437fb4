// Command breakdown regenerates Table 5 of the paper — the incremental
// speedups from Batch, NonBlock, and Squash on NutShell-Palladium,
// XiangShan-Palladium, and XiangShan-FPGA — plus the executed pipeline's
// measured queue occupancy and backpressure for the same configurations.
package main

import (
	"flag"
	"fmt"

	"repro/internal/experiments"
)

func main() {
	instrs := flag.Uint64("instrs", experiments.DefaultInstrs, "dynamic instructions per run")
	workers := flag.Int("workers", 0, "concurrent co-simulations per sweep (0 = GOMAXPROCS)")
	flag.Parse()
	experiments.Workers = *workers
	fmt.Println(experiments.Table5(*instrs))
	fmt.Println(experiments.PipelineOccupancy(*instrs))
}
