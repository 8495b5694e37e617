package profile_test

import (
	"strings"
	"testing"

	"joza/internal/profile"
	"joza/internal/sqltoken"
	"joza/internal/testbed"
	"joza/internal/workload"
)

// This file freezes the skeleton builder the stored profiles were trained
// with — a slice of upper-cased parts, an IN-list fold over that slice and
// a join — verbatim (modulo seed* renames), and diffs the in-place
// AppendSkeleton builder against it. Stores persist skeletons, so the
// builder must be a refactoring, not a behavior change: every query must
// yield a byte-identical skeleton in every dialect, or a trained store
// would silently start flagging its own traffic.

const (
	seedValueMarker   = "?"
	seedStringMarker  = "'?'"
	seedCommentMarker = "/*?*/"
)

func seedSkeletonDialect(d sqltoken.Dialect, query string) string {
	toks := d.Lex(query)
	if len(toks) == 0 {
		return ""
	}
	parts := make([]string, 0, len(toks))
	prevKeyword := "" // upper-cased text of the previous keyword token
	for _, t := range toks {
		var p string
		switch t.Kind {
		case sqltoken.KindNumber, sqltoken.KindPlaceholder:
			p = seedValueMarker
		case sqltoken.KindString:
			p = seedStringMarker
		case sqltoken.KindComment:
			p = seedCommentMarker
		case sqltoken.KindKeyword, sqltoken.KindFunction:
			p = strings.ToUpper(t.Text)
		case sqltoken.KindIdent, sqltoken.KindBacktick, sqltoken.KindVariable:
			if prevKeyword == "AS" {
				// Alias folding: the name after AS is presentation, not
				// structure — SELECT a AS x and SELECT a AS y are one
				// skeleton.
				p = seedValueMarker
			} else {
				p = strings.ToUpper(t.Text)
			}
		default:
			p = t.Text
		}
		if t.Kind == sqltoken.KindKeyword {
			prevKeyword = strings.ToUpper(t.Text)
		} else {
			prevKeyword = ""
		}
		parts = append(parts, p)
	}
	parts = seedFoldInLists(parts)
	return strings.Join(parts, " ")
}

// seedFoldInLists rewrites every `IN ( lit , lit , ... )` run — where each
// element is a folded literal marker — to `IN ( ? )`, so benign IN-list
// length drift does not fragment profiles. Lists containing anything but
// literal markers and commas (subqueries, expressions) are left intact:
// those are structure.
func seedFoldInLists(parts []string) []string {
	out := parts[:0]
	for i := 0; i < len(parts); i++ {
		out = append(out, parts[i])
		if parts[i] != "IN" || i+1 >= len(parts) || parts[i+1] != "(" {
			continue
		}
		// Scan the parenthesized run: literals separated by commas, closed
		// by ")". Anything else aborts the fold.
		j := i + 2
		elems := 0
		expectElem := true
		for ; j < len(parts); j++ {
			p := parts[j]
			if expectElem {
				if p != seedValueMarker && p != seedStringMarker {
					break
				}
				elems++
				expectElem = false
				continue
			}
			if p == ")" {
				break
			}
			if p != "," {
				break
			}
			expectElem = true
		}
		if j < len(parts) && parts[j] == ")" && elems > 0 && !expectElem {
			out = append(out, "(", seedValueMarker, ")")
			i = j
		}
	}
	return out
}

// assertSeedSkeleton fails t unless query's skeleton matches the seed
// builder's in every dialect.
func assertSeedSkeleton(t *testing.T, query string) {
	t.Helper()
	for _, d := range sqltoken.Dialects() {
		if got, want := profile.SkeletonDialect(d, query), seedSkeletonDialect(d, query); got != want {
			t.Fatalf("%s skeleton of %q:\n  got  %q\n  seed %q", d, query, got, want)
		}
	}
}

// TestSkeletonBitIdenticalToSeed diffs the builder against the seed over
// the detection-matrix corpus and the WordPress read, write and search
// traffic the benchmark workloads replay.
func TestSkeletonBitIdenticalToSeed(t *testing.T) {
	lab, err := testbed.NewLab()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := lab.MatrixQueries()
	if err != nil {
		t.Fatal(err)
	}
	matrix := len(queries)
	site, err := workload.NewSite(1001, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []workload.RequestKind{workload.Read, workload.Write, workload.Search} {
		for _, r := range site.GenerateRequests(kind, 300) {
			for _, ev := range r.Events {
				queries = append(queries, ev.Query)
			}
		}
	}
	if matrix == 0 || len(queries) == matrix {
		t.Fatalf("corpus has %d matrix and %d WordPress queries", matrix, len(queries)-matrix)
	}
	for _, q := range queries {
		assertSeedSkeleton(t, q)
	}
	t.Logf("%d matrix and %d WordPress queries agree in %d dialects", matrix, len(queries)-matrix, len(sqltoken.Dialects()))
}
