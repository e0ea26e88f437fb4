package fuzz

import (
	"math/bits"
	"sort"

	"repro/internal/cosim"
)

// A feature is one discretized cell of the coverage signal, encoded
// domain<<24 | index<<8 | bucket. Counters are bucketed log-scale
// (bits.Len64), so a counter must roughly double to mint a new feature —
// the corpus grows on orders of magnitude, not noise.
const (
	domKind  = 1 // per-kind event populations
	domPair  = 2 // sync-class interleaving pairs
	domAdj   = 3 // trap/MMIO adjacency
	domProx  = 4 // bug-trigger proximity counters
	domBreak = 5 // squash break-rate band
)

func feature(dom, idx int, count uint64) uint32 {
	return uint32(dom)<<24 | uint32(idx)<<8 | uint32(bits.Len64(count))
}

// Features discretizes one run's coverage signal into a sorted, deduplicated
// feature list. Runs without a coverage snapshot (a pre-coverage remote
// server) yield nil — they can still surface findings, just never grow the
// corpus.
func Features(res *cosim.Result) []uint32 {
	if res == nil || res.Coverage == nil {
		return nil
	}
	cov := res.Coverage
	fs := make([]uint32, 0, 64)
	add := func(dom, idx int, n uint64) {
		if n > 0 {
			fs = append(fs, feature(dom, idx, n))
		}
	}
	for i, n := range cov.Kind {
		add(domKind, i, n)
	}
	for i, n := range cov.Pair {
		add(domPair, i, n)
	}
	add(domAdj, 0, cov.TrapMMIOAdj)
	for i, n := range cov.Prox {
		add(domProx, i, n)
	}
	if res.Fusion.Windows > 0 {
		// Per-mille break rate of the Squash fuser: how often an NDE forced
		// a fusion window open — the client-side half of the signal, present
		// in remote runs too (fusion happens on the hardware side).
		add(domBreak, 0, res.Fusion.Breaks*1000/res.Fusion.Windows)
	}
	sortU32(fs)
	return fs
}

func sortU32(fs []uint32) {
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
}

// proxFeature is a test hook: the feature a given proximity counter value
// maps to (Prox indexing mirrors checker's Prox* constants).
func proxFeature(idx int, count uint64) uint32 { return feature(domProx, idx, count) }
