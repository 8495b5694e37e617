package testbed

import (
	"fmt"
	"math/rand"

	"joza"
	"joza/internal/evasion"
	"joza/internal/webapp"
)

// SweepRow is one threshold's outcome in the NTI sensitivity study
// (Section III-A's "sensitivity to threshold value" weakness).
type SweepRow struct {
	Threshold float64
	// OriginalsDetected counts original exploits NTI flags at this
	// threshold (out of Total).
	OriginalsDetected int
	// TunedMutantsDetected counts NTI-evasion mutants *re-tuned by the
	// attacker to this threshold* that NTI still flags — the paper's
	// argument is that this stays ~0 at every threshold.
	TunedMutantsDetected int
	// FalsePositives counts benign requests blocked at this threshold.
	FalsePositives int
	// Total is the number of plugins evaluated.
	Total int
}

// ThresholdSweep evaluates NTI alone across thresholds: detection of the
// original exploits, detection of threshold-tuned evasion mutants, and
// false positives on benign requests. It demonstrates the paper's claim
// that no threshold fixes NTI: the attacker simply re-tunes the evasion.
func (l *Lab) ThresholdSweep(thresholds []float64) ([]SweepRow, error) {
	out := make([]SweepRow, 0, len(thresholds))
	for _, th := range thresholds {
		guard, err := joza.New(joza.WithoutPTI(), joza.WithNTIThreshold(th))
		if err != nil {
			return nil, err
		}
		app := l.buildApp(webapp.WithChecker(guard))
		row := SweepRow{Threshold: th, Total: len(l.Specs)}
		for _, s := range l.Specs {
			benign, err := app.Handle(s.Name, l.Request(s, s.Benign))
			if err != nil {
				return nil, fmt.Errorf("%s benign: %w", s.Name, err)
			}
			if benign.Blocked {
				row.FalsePositives++
			}
			orig, err := app.Handle(s.Name, l.Request(s, s.Exploit))
			if err != nil {
				return nil, fmt.Errorf("%s exploit: %w", s.Name, err)
			}
			if orig.Blocked {
				row.OriginalsDetected++
			}
			mutant := l.tunedNTIMutation(s, th)
			mut, err := app.Handle(s.Name, l.Request(s, mutant))
			if err != nil {
				return nil, fmt.Errorf("%s mutant: %w", s.Name, err)
			}
			if mut.Blocked {
				row.TunedMutantsDetected++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// tunedNTIMutation is ntiMutation with an attacker-chosen target
// threshold.
func (l *Lab) tunedNTIMutation(s *Spec, threshold float64) string {
	if s.Decode == DecodeBase64 {
		return s.Exploit
	}
	if s.Quoted {
		return evasion.WhitespacePadding(s.Exploit, threshold)
	}
	return evasion.QuoteStuffing(s.Exploit, threshold)
}

// buildApp constructs one more app configuration over the lab's database
// and plugins (used by the sweep, which needs per-threshold guards).
func (l *Lab) buildApp(opts ...webapp.AppOption) *webapp.App {
	base := []webapp.AppOption{
		webapp.WithCoreSource(coreSource),
		webapp.WithTransforms(webapp.TrimWhitespace, webapp.MagicQuotes),
	}
	app := webapp.NewApp(l.DB, append(base, opts...)...)
	for _, s := range l.Specs {
		app.Install(s.WebPlugin())
	}
	return app
}

// FormatSweep renders the sweep report.
func FormatSweep(rows []SweepRow) string {
	out := "NTI THRESHOLD SENSITIVITY (Section III-A)\n"
	out += fmt.Sprintf("%10s %18s %22s %16s\n",
		"Threshold", "Originals found", "Tuned mutants found", "False positives")
	for _, r := range rows {
		out += fmt.Sprintf("%10.2f %12d/%-5d %16d/%-5d %10d/%-5d\n",
			r.Threshold, r.OriginalsDetected, r.Total,
			r.TunedMutantsDetected, r.Total, r.FalsePositives, r.Total)
	}
	out += "(the attacker re-tunes the evasion to any deployed threshold; quote stuffing\n" +
		" alone caps at a 0.5 difference ratio, but whitespace padding — and any other\n" +
		" length-changing transformation — scales to arbitrary thresholds, and raising\n" +
		" the threshold toward 0.5 invites false positives on richer input workloads)\n"
	return out
}

// FPStudyResult summarizes the false-positive crawl of Section V-B.
type FPStudyResult struct {
	Requests  int
	Blocked   int
	DBErrors  int
	PerPlugin int
}

// FalsePositiveStudy drives randomized benign traffic — varying IDs for
// numeric endpoints, the known-good values for quoted/encoded endpoints —
// through the fully protected application and counts blocks. The paper
// reports zero false positives; so does this study (asserted by tests).
func (l *Lab) FalsePositiveStudy(perPlugin int, seed int64) (*FPStudyResult, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &FPStudyResult{PerPlugin: perPlugin}
	for _, s := range l.Specs {
		for i := 0; i < perPlugin; i++ {
			value := s.Benign
			if !s.Quoted && s.Decode != DecodeBase64 {
				// Numeric endpoints accept any ID, including absent ones
				// (empty result pages are still benign).
				value = fmt.Sprint(rng.Intn(60))
			}
			page, err := l.Run(l.Protected, s, value)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			res.Requests++
			if page.Blocked {
				res.Blocked++
			}
			if page.DBError {
				res.DBErrors++
			}
		}
	}
	return res, nil
}
