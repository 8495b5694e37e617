package strdist

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randomText draws from a small alphabet so random pairs actually share
// near-matches instead of diverging immediately.
func randomText(rng *rand.Rand, n int) string {
	const alphabet = "abcdeXYZ '=-_()1%"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestBitParallelEquivalenceRandom is the core safety net: on random
// pairs across both scan widths, the bit-parallel matcher must agree
// with the Sellers matcher on the threshold decision and, when found,
// return a bit-identical Match.
func TestBitParallelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	thresholds := []float64{0.1, 0.2, 0.35, 0.5}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(90) // crosses the 64-byte single-word boundary
		m := 1 + rng.Intn(160)
		input := randomText(rng, n)
		query := randomText(rng, m)
		if trial%3 == 0 && m > n {
			// Plant a mutated copy of the input so found=true happens often.
			pos := rng.Intn(m - n)
			mutated := []byte(input)
			for i := 0; i < rng.Intn(3); i++ {
				mutated[rng.Intn(len(mutated))] = byte('a' + rng.Intn(4))
			}
			query = query[:pos] + string(mutated) + query[pos+n:]
		}
		th := thresholds[rng.Intn(len(thresholds))]
		want, wantFound, _, err := SubstringMatchThresholdBudgetCtx(context.Background(), input, query, th, 0)
		if err != nil {
			t.Fatalf("sellers error: %v", err)
		}
		got, gotFound, _, err := BitParallelThresholdBudgetCtx(context.Background(), input, query, th, 0)
		if err != nil {
			t.Fatalf("bitparallel error: %v", err)
		}
		if gotFound != wantFound {
			t.Fatalf("trial %d: found mismatch: sellers=%v bitparallel=%v (input=%q query=%q th=%v)",
				trial, wantFound, gotFound, input, query, th)
		}
		if wantFound && got != want {
			t.Fatalf("trial %d: match mismatch: sellers=%+v bitparallel=%+v (input=%q query=%q th=%v)",
				trial, want, got, input, query, th)
		}
	}
}

// Lab near-miss evasions: a payload stuffed past the threshold, as the
// lab's request carries it (the input) and as its query holds it after
// magic quotes. None is found at NTI's 0.2 threshold.
const (
	// evasion.QuoteStuffing("-1 UNION SELECT username, password FROM users", 0.2)
	nearMissLong      = "-1 UNION SELECT username, password FROM users /*''''''''''''''''''''''''''''''''''*/"
	nearMissLongQuery = `SELECT id, name FROM events WHERE id=-1 UNION SELECT username, password FROM users /*\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'*/`
)

// matcherShapes are the pair shapes that take different paths through
// the bit-parallel engine; FuzzMatcherEquivalence and FuzzAnchoredReverse
// are seeded with them too.
var matcherShapes = []struct {
	name, input, query string
	found              bool
	// ties is how many end columns reach the minimum last-row distance d*
	// within the scan's cap (0: a scan miss).
	ties int
	// clipped marks a first tied end j whose window [j−n−d*, j] starts
	// before the query.
	clipped bool
}{
	{name: "quote stuffing, two-word input", input: nearMissLong, query: nearMissLongQuery, ties: 3},
	{
		// evasion.QuoteStuffing("-1 UNION SELECT user(), version()", 0.2):
		// exactly one word.
		name:  "quote stuffing, one-word input",
		input: "-1 UNION SELECT user(), version() /*''''''''''''''''''''''''''*/",
		query: `SELECT id, views FROM posts WHERE id=-1 UNION SELECT user(), version() /*\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'\'*/`,
		ties:  3,
	},
	{
		// evasion.WhitespacePadding("alice' AND LENGTH(version())>3 -- -", 0.2),
		// trimmed by the application: the scan alone rejects it.
		name:  "whitespace padding",
		input: "alice' AND LENGTH(version())>3 -- -                ",
		query: "SELECT id, stars FROM ratings WHERE voter='alice' AND LENGTH(version())>3 -- -'",
	},
	{
		name:  "ends tied far apart",
		input: "admin'--",
		query: `SELECT id FROM users WHERE a='admin\'--' OR b='admin\'--'`,
		found: true,
		ties:  2,
	},
	{
		name:    "many tied ends",
		input:   "abcdef",
		query:   strings.Repeat("abcdeX", 12),
		found:   true,
		ties:    24,
		clipped: true,
	},
	{
		name:    "window clipped at column 0",
		input:   "' OR 1=1 --",
		query:   "' OR 1=1 - LIMIT 1",
		found:   true,
		ties:    2,
		clipped: true,
	},
	{
		name:  "exact occurrences (d*=0), caught earlier by NTI's fast path",
		input: "OR 1=1",
		query: "SELECT * FROM t WHERE a=1 OR 1=1 AND b=2 OR 1=1",
		found: true,
		ties:  2,
	},
}

// TestBitParallelShapes pins each shape (its ties and window, from the
// cell-by-cell DP) and checks the engine agrees with the Sellers DP on
// the decision and, when found, bit-identically on the match.
func TestBitParallelShapes(t *testing.T) {
	ctx := context.Background()
	for _, c := range matcherShapes {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.input)
			row := sellersLastRow(c.input, c.query)
			d := slices.Min(row[1:])
			ties := 0
			if d <= MaxQualifyingDistance(n, 0.2, len(c.query)) {
				for _, v := range row {
					if v == d {
						ties++
					}
				}
			}
			if ties != c.ties {
				t.Fatalf("%d end columns at d*=%d, want %d", ties, d, c.ties)
			}
			if clipped := ties > 0 && slices.Index(row, d) < n+d; clipped != c.clipped {
				t.Fatalf("first window clipped = %v, want %v", clipped, c.clipped)
			}
			want, wantFound, _, err := SubstringMatchThresholdBudgetCtx(ctx, c.input, c.query, 0.2, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, gotFound, _, err := BitParallelThresholdBudgetCtx(ctx, c.input, c.query, 0.2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotFound != c.found || wantFound != c.found {
				t.Fatalf("found: bitparallel %v, sellers %v, want %v", gotFound, wantFound, c.found)
			}
			if c.found && got != want {
				t.Fatalf("bitparallel %+v, sellers %+v", got, want)
			}
		})
	}
}

// TestBitParallelNearMissCharge pins the budget charge of a pair the
// reverse pass rejects: n cells per scanned column over the whole query,
// n per reverse-pass column, and no DP. The pair succeeds under exactly
// that budget and fails one cell below it.
func TestBitParallelNearMissCharge(t *testing.T) {
	input, query := nearMissLong, nearMissLongQuery
	n, mq := len(input), len(query)
	row := sellersLastRow(input, query)
	d := slices.Min(row[1:])
	first, last := slices.Index(row, d), len(row)-1
	for row[last] != d {
		last--
	}
	charge := n*mq + n*min(last, last-first+n+d)
	ctx := context.Background()
	if _, found, pruned, err := BitParallelThresholdBudgetCtx(ctx, input, query, 0.2, charge); err != nil || found || !pruned {
		t.Fatalf("budget %d: found=%v pruned=%v err=%v, want a pruned miss", charge, found, pruned, err)
	}
	if _, _, _, err := BitParallelThresholdBudgetCtx(ctx, input, query, 0.2, charge-1); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget %d: err=%v, want ErrBudget", charge-1, err)
	}
}

// sellersLastRow is the search-mode DP's last row, dp[n][j] for every
// query column j, computed cell by cell.
func sellersLastRow(input, query string) []int {
	n := len(input)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := range prev {
		prev[i] = i
	}
	row := make([]int, len(query)+1)
	row[0] = n
	for j := 1; j <= len(query); j++ {
		cur[0] = 0
		for i := 1; i <= n; i++ {
			cost := 1
			if input[i-1] == query[j-1] {
				cost = 0
			}
			cur[i] = min3(prev[i-1]+cost, prev[i]+1, cur[i-1]+1)
		}
		row[j] = cur[n]
		prev, cur = cur, prev
	}
	return row
}

// TestMyersScanMatchesLastRow drives the scan against the naive DP's
// last row on exhaustive small cases: the scan must report exactly the
// minimum last-row value within the cap and the columns that reach it.
func TestMyersScanMatchesLastRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(18)
		input := randomText(rng, n)
		query := randomText(rng, m)
		k := rng.Intn(n + 1)
		// Reference: Sellers DP last row, cell by cell.
		want := scanEnds{best: k}
		for j, v := range sellersLastRow(input, query)[1:] {
			if v <= want.best {
				want.add(v, j+1)
			}
		}
		got := scanEnds{best: k}
		if err := myersScan64(context.Background(), input, query, nil, &got); err != nil {
			t.Fatalf("scan error: %v", err)
		}
		if got != want {
			t.Fatalf("scan64 mismatch: input=%q query=%q k=%d got=%+v want=%+v", input, query, k, got, want)
		}
		// The block variant must agree even when a single word would do.
		gotB := scanEnds{best: k}
		if err := myersScanBlocks(context.Background(), input, query, nil, &gotB); err != nil {
			t.Fatalf("block scan error: %v", err)
		}
		if gotB != want {
			t.Fatalf("scanBlocks mismatch: input=%q query=%q k=%d got=%+v want=%+v", input, query, k, gotB, want)
		}
	}
}

// TestMyersScanBlocksLongInput checks the carry chain across block
// boundaries with inputs well past 64 bytes.
func TestMyersScanBlocksLongInput(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 65 + rng.Intn(200)
		input := randomText(rng, n)
		query := randomText(rng, 40) + input + randomText(rng, 40)
		hit := scanEnds{best: 0}
		if err := myersScanBlocks(context.Background(), input, query, nil, &hit); err != nil {
			t.Fatal(err)
		}
		if hit.last == 0 || hit.first != 40+n {
			t.Fatalf("exact occurrence not found at k=0 (n=%d): %+v", n, hit)
		}
		// A disjoint-alphabet input can't come within any sane cap.
		miss := strings.Repeat("#", n)
		hit = scanEnds{best: n / 5}
		if err := myersScanBlocks(context.Background(), miss, query, nil, &hit); err != nil {
			t.Fatal(err)
		}
		if hit.last != 0 {
			t.Fatalf("disjoint input reported within distance %d", n/5)
		}
	}
}

func TestMaxQualifyingDistance(t *testing.T) {
	cases := []struct {
		n    int
		th   float64
		m    int
		want int
	}{
		{0, 0.2, 100, 0},
		{40, 0, 100, 0},
		{4, 0.2, 100, 1},   // 0.2*4/0.8 = 1.0 → conservative floor keeps 1
		{3, 0.2, 100, 0},   // 0.75 → 0: only exact matches can qualify
		{40, 0.2, 100, 10}, // 0.2*40/0.8 = 10
		{400, 0.2, 50, 10}, // query-length cap: 0.2*50 = 10
		{10, 1.5, 100, 10}, // degenerate threshold caps at n
	}
	for _, c := range cases {
		if got := MaxQualifyingDistance(c.n, c.th, c.m); got != c.want {
			t.Errorf("MaxQualifyingDistance(%d, %v, %d) = %d, want %d", c.n, c.th, c.m, got, c.want)
		}
	}
	// Soundness on random shapes: every threshold-qualifying match found
	// by the reference matcher must carry distance ≤ the bound.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(80)
		th := []float64{0.1, 0.2, 0.5}[rng.Intn(3)]
		input := randomText(rng, n)
		query := randomText(rng, m)
		got, found, _ := SubstringMatchThreshold(input, query, th)
		if found && got.Distance > MaxQualifyingDistance(n, th, m) {
			t.Fatalf("qualifying match distance %d exceeds bound %d (n=%d m=%d th=%v)",
				got.Distance, MaxQualifyingDistance(n, th, m), n, m, th)
		}
	}
}

func TestBitParallelBudget(t *testing.T) {
	input := strings.Repeat("x", 40)
	query := strings.Repeat("y", 4000)
	// Generous budget: same decision as unbudgeted.
	if _, found, _, err := BitParallelThresholdBudgetCtx(context.Background(), input, query, 0.2, 1<<24); err != nil || found {
		t.Fatalf("generous budget: found=%v err=%v", found, err)
	}
	// Tiny budget: the scan itself must charge cells and trip ErrBudget.
	_, _, _, err := BitParallelThresholdBudgetCtx(context.Background(), input, query, 0.2, 100)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: err=%v, want ErrBudget", err)
	}
}

func TestBitParallelCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := strings.Repeat("x", 40)
	query := strings.Repeat("x", 100000)
	_, _, _, err := BitParallelThresholdBudgetCtx(ctx, input, query, 0.2, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// TestBitParallelZeroAlloc mirrors TestSubstringMatchZeroAlloc: once the
// pools are warm, neither scan width may allocate.
func TestBitParallelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	short := randomText(rand.New(rand.NewSource(1)), 48)
	long := randomText(rand.New(rand.NewSource(2)), 90)
	query := randomText(rand.New(rand.NewSource(3)), 300)
	run := func(input string) {
		if _, _, _, err := BitParallelThresholdBudgetCtx(context.Background(), input, query, 0.2, 0); err != nil {
			t.Fatal(err)
		}
	}
	run(short)
	run(long) // warm wordPool
	allocs := testing.AllocsPerRun(100, func() {
		run(short)
		run(long)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocations = %v, want 0", allocs)
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// BenchmarkBitParallelShortInput is the single-word scan on the shape
// most NTI matcher calls take: a short form value that misses a query a
// hundred-odd bytes long, so the call is the scan and its setup.
func BenchmarkBitParallelShortInput(b *testing.B) {
	const (
		input = "garden ideas" // 12 bytes
		query = "SELECT ID, title FROM wp_posts WHERE post_type = 'post' " +
			"AND post_status = 'publish' AND post_title LIKE '%gd%'" // 110 bytes
	)
	if len(input) != 12 || len(query) != 110 {
		b.Fatalf("shape %d×%d, want 12×110", len(input), len(query))
	}
	ctx := context.Background()
	b.Run("n=12/m=110", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, found, _, _ := BitParallelThresholdBudgetCtx(ctx, input, query, 0.2, 0); found {
				b.Fatal("unexpected match")
			}
		}
	})
}
