package main

import (
	"runtime"
	"strings"
)

// allocPackages are the modules an allocation can be charged to; anything
// whose stack holds no frame of theirs goes to "other" (runtime, stdlib, the
// benchmark itself).
var allocPackages = []string{
	"dut", "arch", "snapshot", "wire", "squash", "replay", "batch", "event",
	"checker", "ref", "pipeline", "transport", "fleet", "cosim",
}

const internalPrefix = "repro/internal/"

// packageOf names the repro/internal package that owns the innermost frame of
// a stack (function names, innermost first), or "other". Sub-packages count
// toward their parent: transport/shmring is transport.
func packageOf(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return "other"
}

// allocTally is objects and bytes allocated.
type allocTally struct{ objects, bytes int64 }

// heapProfile reads the allocation profile as of the last completed GC
// cycle, keyed by call stack.
func heapProfile() map[[32]uintptr]allocTally {
	// Allocations are published to the profile two GC cycles after they
	// happen.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]allocTally, n)
	for _, r := range recs[:n] {
		t := out[r.Stack0]
		t.objects += r.AllocObjects
		t.bytes += r.AllocBytes
		out[r.Stack0] = t
	}
	return out
}

// attributeAllocs runs fn with every allocation profiled and charges each to
// the innermost repro/internal package on its stack.
func attributeAllocs(fn func() error) (map[string]allocTally, error) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	before := heapProfile()
	if err := fn(); err != nil {
		return nil, err
	}
	after := heapProfile()

	byPkg := make(map[string]allocTally)
	for stack, t := range after {
		b := before[stack]
		t.objects -= b.objects
		t.bytes -= b.bytes
		if t.objects <= 0 {
			continue
		}
		var funcs []string
		n := 0
		for n < len(stack) && stack[n] != 0 {
			n++
		}
		frames := runtime.CallersFrames(stack[:n])
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		pkg := packageOf(funcs)
		p := byPkg[pkg]
		p.objects += t.objects
		p.bytes += t.bytes
		byPkg[pkg] = p
	}
	return byPkg, nil
}
