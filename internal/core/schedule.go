package core

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/protocols"
	"repro/internal/secerr"
)

// Mode selects the query-processing variant evaluated in Section 11.2.
// A mode is a policy for T's duplicate rows plus a cadence (Schedule).
type Mode int

const (
	// QryF is the fully private baseline: it keeps every row of T and
	// marks older copies of an object from SecWorstBest's bits, in no
	// round of its own, at every depth (Section 8).
	QryF Mode = iota
	// QryE eliminates duplicates, keeping one row per object (Section
	// 10.1): it merges, ranks and halt-checks at every depth from the
	// first where a halt is possible. It leaks the uniqueness pattern
	// UP^d to S1 and the equality pattern EP^d to S2.
	QryE
	// QryBa merges like Qry_E, but only every p depths (Section 10.2),
	// with the same leakage at those depths.
	QryBa
)

func (m Mode) String() string {
	if m < QryF || m > QryBa {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return [...]string{"Qry_F", "Qry_E", "Qry_Ba"}[m]
}

// Options configures one SecQuery execution.
type Options struct {
	Mode Mode
	// BatchDepth is the batching parameter p (Qry_Ba only); the paper
	// requires p >= k. Zero picks max(2k, 8).
	BatchDepth int
	// MaxDepth caps the scan for benchmarking time-per-depth; zero means
	// scan to completion.
	MaxDepth int
	// ExactScan disables the halting tests: the scan runs to MaxDepth (or
	// the whole relation), so after a full scan every returned score is
	// the exact aggregate. The shard merge uses it as its fallback when
	// the NRA merge-bound check cannot certify an early-halted merge.
	ExactScan bool
}

// Validate refuses option values no engine path defines — an unknown
// mode, a negative depth, a Qry_Ba batch depth below k (Section 10.2) —
// typed bad_request: peers on the client and the cluster wire send these
// as bare integers, and unchecked a stray mode would run as Qry_F.
func (o Options) Validate(k int) error {
	switch {
	case o.Mode < QryF || o.Mode > QryBa:
		return secerr.New(secerr.CodeBadRequest, "core: unknown query mode %d", int(o.Mode))
	case o.BatchDepth < 0 || o.MaxDepth < 0:
		return secerr.New(secerr.CodeBadRequest,
			"core: negative depth option (batch depth %d, max depth %d)", o.BatchDepth, o.MaxDepth)
	case o.Mode == QryBa && o.BatchDepth > 0 && o.BatchDepth < k:
		return secerr.New(secerr.CodeBadRequest,
			"core: batch depth p=%d must be >= k=%d (Section 10.2)", o.BatchDepth, k)
	}
	return nil
}

// firstHaltDepth is the first 1-based depth at which NRA's halting test
// can pass on m lists and k answers while the unseen bound U = Σ bottoms
// is positive. At depth d at most m(d−1) objects were seen before d, so
// with k ≥ m(d−1)+2 the top k hold two objects first seen at d; those
// split the depth's lists between them, so the lower worst score is at
// most U/2, and W_k ≥ U needs U = 0. When U = 0 every k-set is a top-k,
// so the query loses no answer by testing from this depth on: it halts
// there or later with a tie-equivalent one. The depth is a function of
// the public (m, k) alone, so skipping the ranking and halting rounds
// below it tells no party anything.
func firstHaltDepth(m, k int) int {
	return 1 + (k-1+m-1)/m
}

// Schedule is a query's public round sequence: which depths it reads,
// merges and halt-checks, and what each sends S2, as a function of the
// relation's n, the token's m lists and k, the query's Options and, in
// the merge modes, each merge's row count |T| (UP^d, Section 10.1). The
// engine's depth loop reads it and nothing else (Sections 9-10). Depths
// are 0-based.
type Schedule struct {
	// Depths is how many depths the query reads unless a check halts it,
	// and FullScan whether they are the whole relation, so that a scan
	// that ends unhalted returns exact scores.
	Depths   int
	FullScan bool
	mode     Mode
	m, k     int
	p        int // a merge mode's cadence: every p-th depth from first on
	first    int // firstHaltDepth(m, k)
	exact    bool
}

// NewSchedule returns the schedule of a query of k answers over m lists
// of a relation of n rows: Qry_E merges at a cadence of p = 1, Qry_Ba at
// its BatchDepth or, at zero, max(2k, 8); the scan reads n depths or
// MaxDepth when that is lower; ExactScan checks at no depth.
func NewSchedule(n, m, k int, opts Options) Schedule {
	s := Schedule{Depths: n, mode: opts.Mode, m: m, k: k, p: opts.BatchDepth, first: firstHaltDepth(m, k), exact: opts.ExactScan}
	switch {
	case opts.Mode == QryE:
		s.p = 1
	case s.p == 0:
		s.p = max(2*k, 8)
	}
	if opts.MaxDepth > 0 && opts.MaxDepth < n {
		s.Depths = opts.MaxDepth
	}
	s.FullScan = s.Depths == n
	return s
}

// Reads returns the end of the depths [d, Reads(d)) whose SecWorstBest
// bits Qry_F's depth d sends S2. Every depth up to firstHaltDepth is
// certain to run, so depth 0 sends them all; each later depth its own.
func (s Schedule) Reads(d int) int {
	switch {
	case d == 0:
		return min(s.first, s.Depths)
	case d < s.first:
		return d
	}
	return d + 1
}

// Merges reports whether a merge mode's depth d merges the depths read
// since the last merge into T: every p-th depth from firstHaltDepth on,
// and the scan's last.
func (s Schedule) Merges(d int) bool {
	return s.mode != QryF && (d == s.Depths-1 || (d+1)%s.p == 0 && d+1 >= s.first)
}

// Checks reports whether depth d, after which T holds t rows (m(d+1) in
// Qry_F), ranks T and tests for a halt: not under ExactScan, not below
// firstHaltDepth, in a merge mode only where it merges, and only with a
// tail past the top k.
func (s Schedule) Checks(d, t int) bool {
	return !s.exact && d+1 >= s.first && (s.mode == QryF || s.Merges(d)) && t >= s.k+1
}

// Request is one S1→S2 request a schedule states: its wire method and,
// where the schedule fixes it, its item count (zero where it does not).
type Request struct {
	Method string
	Items  int
}

// Transcript returns every request, in order, of a run that read depth
// depths and, if halted, stopped at the last one's check; a merge at
// depth d leaves size(d) rows in T. Qry_F sends the SecWorstBest bits of
// the depths Reads names, one zero test per (item i at depth e, list j ≠
// i, depth ≤ e), a merging depth one Dedup. A check ranks the top k, one
// CompareHidden a layer, multiplies a merge mode's (t − k)·m tail
// indicators by the bottoms (batchBest's Mult) and compares W_k with t −
// k + 1 bounds. An unhalted run ranks its top min(k, t) at the end.
func (s Schedule) Transcript(depth int, halted bool, size func(d int) int) []Request {
	var out []Request
	rank := func(t, k int) {
		for range protocols.SelectTopLayers(t, k) {
			out = append(out, Request{Method: cloud.MethodCompareHidden})
		}
	}
	t := 0
	for d := 0; d < depth; d++ {
		if s.mode == QryF {
			// m(m-1)(e+1) bits at each depth e in [d, r).
			r := s.Reads(d)
			t = s.m * (d + 1)
			if bits := s.m * (s.m - 1) * (r*(r+1) - d*(d+1)) / 2; bits > 0 {
				out = append(out, Request{cloud.MethodEqBits, bits})
			}
		} else if s.Merges(d) {
			t = size(d)
			out = append(out, Request{Method: cloud.MethodDedup})
		}
		if !s.Checks(d, t) {
			continue
		}
		rank(t, s.k)
		if s.mode != QryF {
			out = append(out, Request{cloud.MethodMult, (t - s.k) * s.m})
		}
		out = append(out, Request{cloud.MethodCompare, t - s.k + 1})
	}
	if !halted && t > 0 {
		rank(t, min(s.k, t))
	}
	return out
}
