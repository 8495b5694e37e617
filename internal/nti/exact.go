package nti

import (
	"fmt"
	"math/bits"
	"strings"

	"joza/internal/core"
	"joza/internal/strdist"
)

// exactSpans is the exact-occurrence fast path past the first
// occurrence p0, which the caller found with strings.Index (the common
// pair has no occurrence, or one, and that settles it at full speed). It
// appends to out every exact occurrence of the non-empty value in query,
// overlapping and adjacent ones coalesced into one region. Past
// maxExactRegions regions the remaining occurrences go unmarked.
//
// From p0 one pass finds the rest, in two gears. While copies of value's
// first byte are sparse, strings.IndexByte skips from one to the next,
// and each is settled by value's last byte and then a compare. Once they
// are dense (a form word recurring in a comment body, whose first byte is
// common in it), each stop costs more than sweeping: a SWAR filter then
// tests sixteen query columns per step for the first byte at the column
// and the last byte n−1 columns on, and compares only the columns passing
// both. Either way no search restarts at an occurrence.
//
// With budget > 0 the pass charges what a search restarted after each
// occurrence would have probed: nothing for the first occurrence, and for
// each later one its distance from the previous plus the value's length.
// A charge that exhausts the budget fails the scan with an error wrapping
// core.ErrOverBudget; the charges stop with the region cap.
func exactSpans(value, query string, p0, budget int, out []strdist.Match) ([]strdist.Match, error) {
	n := len(value)
	r := exactRegions{base: len(out), n: n, budget: budget, prev: p0}
	out = append(out, strdist.Match{Start: p0, End: p0 + n})
	first, last := value[0], value[n-1]
	stop := len(query) - n + 1 // the columns an occurrence can start at
	p := p0 + 1
	for stops := 1; p < stop; stops++ {
		if query[p] != first {
			j := strings.IndexByte(query[p+1:stop], first)
			if j < 0 {
				return out, nil
			}
			p += j + 1
		}
		if query[p+n-1] == last && query[p:p+n] == value {
			var done bool
			if out, done = r.add(out, p); done {
				return r.result(out, len(query))
			}
		}
		p++
		if stops >= denseStops && stops*denseGap > p-p0 {
			break
		}
	}
	wf, wl := lanes*uint64(first), lanes*uint64(last)
	// A step at p covers columns p..p+15, whose last bytes end at p+n+14.
	for ; p+n+15 <= len(query); p += 16 {
		lo := zeroLanes(load64(query, p)^wf) & zeroLanes(load64(query, p+n-1)^wl)
		hi := zeroLanes(load64(query, p+8)^wf) & zeroLanes(load64(query, p+n+7)^wl)
		if lo|hi == 0 {
			continue
		}
		for c, m := p, lo; c <= p+8; c, m = c+8, hi {
			for ; m != 0; m &= m - 1 {
				at := c + bits.TrailingZeros64(m)>>3
				if query[at:at+n] != value {
					continue // a borrow's false lane, or a middle mismatch
				}
				var done bool
				if out, done = r.add(out, at); done {
					return r.result(out, len(query))
				}
			}
		}
	}
	for ; p < stop; p++ {
		if query[p] != first || query[p+n-1] != last || query[p:p+n] != value {
			continue
		}
		var done bool
		if out, done = r.add(out, p); done {
			return r.result(out, len(query))
		}
	}
	return out, nil
}

// exactSpans leaves strings.IndexByte for its SWAR sweep once it has
// stopped at denseStops copies of value's first byte and at more than
// one per denseGap columns: an IndexByte call costs about what sweeping
// that many columns does.
const (
	denseStops = 2
	denseGap   = 40
)

// exactRegions is exactSpans' bookkeeping past the first occurrence.
type exactRegions struct {
	base, n int  // out's length before the scan, and the value's
	budget  int  // what is left of a budget > 0
	prev    int  // the last occurrence
	over    bool // the budget ran out
}

// add records the occurrence at p, after the first, in out and reports
// whether the scan must stop: at the region cap, or when the budget runs
// out.
func (r *exactRegions) add(out []strdist.Match, p int) ([]strdist.Match, bool) {
	if r.budget > 0 {
		if r.budget -= p - r.prev - 1 + r.n; r.budget <= 0 {
			r.over = true
			return out, true
		}
	}
	r.prev = p
	if last := &out[len(out)-1]; p <= last.End {
		last.End = p + r.n
		return out, false
	}
	if len(out)-r.base >= maxExactRegions {
		return out, true
	}
	return append(out, strdist.Match{Start: p, End: p + r.n}), false
}

// result returns exactSpans' results once add stopped the scan.
func (r *exactRegions) result(out []strdist.Match, m int) ([]strdist.Match, error) {
	if r.over {
		return nil, fmt.Errorf("nti: exact-occurrence scan against %d-byte query: %w", m, core.ErrOverBudget)
	}
	return out, nil
}

// Byte-lane constants: every byte 0x01, and every byte 0x80.
const (
	lanes    = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// zeroLanes sets the high bit of each zero byte of w. A borrow can also
// flag a lane above a zero one, so a flagged lane is only a candidate.
func zeroLanes(w uint64) uint64 { return (w - lanes) &^ w & laneHigh }

// load64 returns the little-endian word of s's eight bytes from i.
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
