// Command tracetool is the tuning-toolkit front end (paper §5): it dumps DUT
// traces for iterative debugging, re-drives the verification logic from a
// dumped trace without the DUT, and records transmission logs into the SQL
// engine for offline analysis.
//
// Usage:
//
//	tracetool dump    -out run.trace [-workload linux -instrs 100000 -seed 7]
//	tracetool replay  -in  run.trace [-workload linux -instrs 100000 -seed 7]
//	tracetool analyze -in  run.trace      # offline fusion/differencing study
//	tracetool sql     [-query "SELECT ..."] [-workload linux]
//
// replay regenerates the same program image from (workload, instrs, seed),
// so pass the same values used for dump.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyze"
	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/sqldb"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		out    = fs.String("out", "run.trace", "trace output path (dump)")
		in     = fs.String("in", "run.trace", "trace input path (replay)")
		wlName = fs.String("workload", "linux", "workload profile")
		instrs = fs.Uint64("instrs", 100_000, "target dynamic instructions")
		seed   = fs.Int64("seed", 7, "workload seed")
		query  = fs.String("query", "", "SQL query over the transmission log (sql)")
	)
	exitOn(fs.Parse(os.Args[2:]))

	wl, ok := workload.ByName(*wlName)
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q", *wlName))
	}
	wl.TargetInstrs = *instrs
	cfg := dut.XiangShanDefault()
	prog := workload.Generate(wl, cfg.Cores, *seed)

	switch cmd {
	case "dump":
		f, err := os.Create(*out)
		exitOn(err)
		defer f.Close()
		w, err := trace.NewWriter(f)
		exitOn(err)
		d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
		for {
			recs, done := d.StepCycle()
			exitOn(w.WriteCycle(d.CycleCount, recs))
			if done {
				break
			}
		}
		exitOn(w.Close())
		fmt.Printf("dumped %d cycles, %d events to %s\n", w.Cycles, w.Events, *out)

	case "replay":
		f, err := os.Open(*in)
		exitOn(err)
		defer f.Close()
		r, err := trace.NewReader(f)
		exitOn(err)
		chk := checker.New(prog.Image, prog.Entries, cfg.Cores)
		for {
			_, recs, err := r.ReadCycle()
			if err == io.EOF {
				break
			}
			exitOn(err)
			for _, rec := range recs {
				if m := chk.Process(rec); m != nil {
					fmt.Printf("trace replay mismatch: %v\n", m)
					os.Exit(2)
				}
			}
		}
		fin, code := chk.Finished()
		fmt.Printf("replayed %d cycles, %d events: finished=%v code=%d\n",
			r.Cycles, r.Events, fin, code)

	case "analyze":
		f, err := os.Open(*in)
		exitOn(err)
		defer f.Close()
		r, err := trace.NewReader(f)
		exitOn(err)
		rep, err := analyze.Trace(r)
		exitOn(err)
		fmt.Print(rep)

	case "sql":
		db := sqldb.Open()
		_, err := db.CreateTable("tx",
			sqldb.ColumnDef{Name: "cycle", Type: sqldb.TypeInteger},
			sqldb.ColumnDef{Name: "seq", Type: sqldb.TypeInteger},
			sqldb.ColumnDef{Name: "core", Type: sqldb.TypeInteger},
			sqldb.ColumnDef{Name: "kind", Type: sqldb.TypeText},
			sqldb.ColumnDef{Name: "category", Type: sqldb.TypeText},
			sqldb.ColumnDef{Name: "bytes", Type: sqldb.TypeInteger},
			sqldb.ColumnDef{Name: "nde", Type: sqldb.TypeInteger},
		)
		exitOn(err)
		d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
		for {
			recs, done := d.StepCycle()
			for _, rec := range recs {
				k := rec.Kind
				nde := int64(0)
				if event.IsNDEEncoding(k, rec.Data) {
					nde = 1
				}
				exitOn(db.Insert("tx",
					int64(d.CycleCount), int64(rec.Seq), int64(rec.Core),
					k.String(), event.CategoryOf(k).String(),
					int64(event.SizeOf(k)), nde))
			}
			if done {
				break
			}
		}
		q := *query
		if q == "" {
			q = `SELECT kind, COUNT(*) AS n, SUM(bytes) AS volume FROM tx
			     GROUP BY kind ORDER BY volume DESC LIMIT 12`
		}
		res, err := db.Exec(q)
		exitOn(err)
		fmt.Print(res)

	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool dump|replay|analyze|sql [flags]")
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}
