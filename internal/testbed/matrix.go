package testbed

import (
	"context"
	"encoding/json"
	"fmt"

	"joza"
	"joza/internal/evasion"
	"joza/internal/webapp"
)

// Detection-matrix case classes. The first four mirror the Table IV
// corpus (benign baselines, original exploits, NTI-evasion mutants and
// Taintless's working PTI-evasion rewrites); the last two are the gap
// classes only the query-skeleton profile stage can close:
//
//   - fragment-rebuilt: a short tautology built entirely from the trusted
//     fragment vocabulary and delivered base64-encoded, so NTI never sees
//     the payload in the query and PTI finds every critical token covered;
//   - second-order: the payload reaches the query from attacker-poisoned
//     storage rather than the request, so NTI has no input to correlate
//     and the vocabulary again covers every token.
const (
	ClassBenign          = "benign"
	ClassOriginal        = "original-exploit"
	ClassNTIMutant       = "nti-mutant"
	ClassPTIMutant       = "pti-mutant"
	ClassFragmentRebuilt = "fragment-rebuilt"
	ClassSecondOrder     = "second-order"
)

// TechniqueCounts holds one count per protection technique: the three
// single analyzers, the paper's NTI+PTI hybrid, and the hybrid extended
// with the profile stage.
type TechniqueCounts struct {
	NTI           int `json:"nti"`
	PTI           int `json:"pti"`
	Profile       int `json:"profile"`
	Hybrid        int `json:"hybrid"`
	HybridProfile int `json:"hybridProfile"`
}

// MatrixRow is one case class: how many cases were evaluated and how many
// each technique blocked. For the benign row the counts are false
// positives and the profile-bearing columns must read zero.
type MatrixRow struct {
	Class    string          `json:"class"`
	Cases    int             `json:"cases"`
	Detected TechniqueCounts `json:"detected"`
}

// DetectionMatrix is the Table-IV-style per-technique detection sweep,
// extended with the profile stage and the two gap attack classes.
type DetectionMatrix struct {
	Rows []MatrixRow `json:"rows"`
	// TotalCases counts every evaluated request across all rows.
	TotalCases int `json:"totalCases"`
	// ProfileSites and ProfileSkeletons size the trained store.
	ProfileSites     int `json:"profileSites"`
	ProfileSkeletons int `json:"profileSkeletons"`

	// Store is the profile store trained on the benign traffic, for
	// callers that want to persist the learning run alongside the sweep.
	Store *joza.ProfileStore `json:"-"`
}

// Row returns the named row, or nil.
func (m *DetectionMatrix) Row(class string) *MatrixRow {
	for i := range m.Rows {
		if m.Rows[i].Class == class {
			return &m.Rows[i]
		}
	}
	return nil
}

// fragmentRebuiltPayload is the gap-class tautology: every token is
// covered by the core dynamic-condition-builder vocabulary (" or ", "=",
// "1") and the adrotate plugin delivers it base64-encoded, so neither
// taint analyzer has anything to hold against it.
const (
	fragmentRebuiltPlugin  = "adrotate"
	fragmentRebuiltPayload = "1 or 1=1"
)

// Second-order gap case: the stored-redirect plugin resolves a redirect
// target from persistent application state (an option an earlier,
// benign-looking request poisoned) and concatenates it into a query. The
// triggering request carries only a harmless marker parameter.
const (
	secondOrderPlugin  = "stored-redirect"
	secondOrderBenign  = "2"
	secondOrderPayload = "1 or 1=1"
)

// storedState models attacker-reachable persistent state: the value is
// written out of band and consumed by a later handler that never sees it
// as request input.
type storedState struct{ value string }

// newSecondOrderPlugin materializes the stored-redirect route over st.
// Its query prefix is the core $q_post fragment, so the guard vocabulary
// needs nothing new.
func newSecondOrderPlugin(st *storedState) *webapp.Plugin {
	return &webapp.Plugin{
		Name: secondOrderPlugin,
		Source: `<?php
/* Plugin Name: stored-redirect */
$target = get_option('redirect_target'); /* attacker-writable elsewhere */
$query = 'SELECT id, title FROM posts WHERE id=' . $target;
$result = mysql_query($query);
`,
		Handle: func(c *webapp.Ctx) (string, error) {
			res, err := c.Query("SELECT id, title FROM posts WHERE id=" + st.value)
			if err != nil {
				return "", err
			}
			return webapp.RenderRows(res), nil
		},
	}
}

// benignTrainingValues returns the benign request values for a spec: the
// known-good baseline plus fixed ID drift for numeric endpoints, so the
// learned profiles see the same parameter variation the false-positive
// sweep replays.
func benignTrainingValues(s *Spec) []string {
	if s.Quoted || s.Decode == DecodeBase64 {
		return []string{s.Benign}
	}
	return []string{s.Benign, "0", "7", "23", "42", "59"}
}

// TrainProfiles runs the learning pass: benign traffic for every plugin
// (and the second-order route) through a full hybrid guard in learning
// mode, returning the frozen store. A blocked training request is an
// error — learning must happen on clean traffic.
func (l *Lab) TrainProfiles() (*joza.ProfileStore, error) {
	st := &storedState{value: secondOrderBenign}
	store, _, err := l.trainProfiles(st)
	return store, err
}

func (l *Lab) trainProfiles(st *storedState) (*joza.ProfileStore, *webapp.Plugin, error) {
	rec := joza.NewProfileRecorder()
	gLearn, err := joza.New(joza.WithFragmentSet(l.Fragments), joza.WithProfileLearning(rec))
	if err != nil {
		return nil, nil, fmt.Errorf("build learning guard: %w", err)
	}
	soPlugin := newSecondOrderPlugin(st)
	app := l.buildApp(webapp.WithChecker(gLearn))
	app.Install(soPlugin)
	for _, s := range l.Specs {
		for _, v := range benignTrainingValues(s) {
			page, err := app.Handle(s.Name, l.Request(s, v))
			if err != nil {
				return nil, nil, fmt.Errorf("train %s: %w", s.Name, err)
			}
			if page.Blocked {
				return nil, nil, fmt.Errorf("train %s: benign request blocked", s.Name)
			}
		}
	}
	page, err := app.Handle(secondOrderPlugin, &webapp.Request{Get: map[string]string{"go": "1"}})
	if err != nil {
		return nil, nil, fmt.Errorf("train %s: %w", secondOrderPlugin, err)
	}
	if page.Blocked {
		return nil, nil, fmt.Errorf("train %s: benign request blocked", secondOrderPlugin)
	}
	return rec.Store(), soPlugin, nil
}

// matrixApps holds the five technique configurations plus the
// unprotected oracle, all sharing the lab database and the second-order
// plugin instance.
type matrixApps struct {
	unprotected   *webapp.App
	nti           *webapp.App
	pti           *webapp.App
	profile       *webapp.App
	hybrid        *webapp.App
	hybridProfile *webapp.App
}

func (l *Lab) buildMatrixApps(store *joza.ProfileStore, soPlugin *webapp.Plugin) (*matrixApps, error) {
	profileG, err := joza.New(joza.WithoutNTI(), joza.WithoutPTI(), joza.WithProfileStore(store))
	if err != nil {
		return nil, fmt.Errorf("build profile-only guard: %w", err)
	}
	hybridProfileG, err := joza.New(joza.WithFragmentSet(l.Fragments), joza.WithProfileStore(store))
	if err != nil {
		return nil, fmt.Errorf("build hybrid+profile guard: %w", err)
	}
	ntiG, err := joza.New(joza.WithoutPTI())
	if err != nil {
		return nil, err
	}
	ptiG, err := joza.New(joza.WithFragmentSet(l.Fragments), joza.WithoutNTI())
	if err != nil {
		return nil, err
	}
	hybridG, err := joza.New(joza.WithFragmentSet(l.Fragments))
	if err != nil {
		return nil, err
	}
	mk := func(opts ...webapp.AppOption) *webapp.App {
		app := l.buildApp(opts...)
		app.Install(soPlugin)
		return app
	}
	return &matrixApps{
		unprotected:   mk(),
		nti:           mk(webapp.WithChecker(ntiG)),
		pti:           mk(webapp.WithChecker(ptiG)),
		profile:       mk(webapp.WithChecker(profileG)),
		hybrid:        mk(webapp.WithChecker(hybridG)),
		hybridProfile: mk(webapp.WithChecker(hybridProfileG)),
	}, nil
}

// probe runs one request against all five technique apps and folds the
// blocks into counts.
func (a *matrixApps) probe(counts *TechniqueCounts, run func(app *webapp.App) (*webapp.Page, error)) error {
	for _, p := range []struct {
		app  *webapp.App
		dest *int
	}{
		{a.nti, &counts.NTI},
		{a.pti, &counts.PTI},
		{a.profile, &counts.Profile},
		{a.hybrid, &counts.Hybrid},
		{a.hybridProfile, &counts.HybridProfile},
	} {
		page, err := run(p.app)
		if err != nil {
			return err
		}
		if page.Blocked {
			*p.dest++
		}
	}
	return nil
}

// EvaluateMatrix trains profiles on benign traffic and runs the full
// per-technique detection sweep: benign false positives, the Table IV
// attack corpus, and the two gap classes. The returned matrix carries the
// trained store for persistence.
func (l *Lab) EvaluateMatrix() (*DetectionMatrix, error) {
	st := &storedState{value: secondOrderBenign}
	store, soPlugin, err := l.trainProfiles(st)
	if err != nil {
		return nil, err
	}
	apps, err := l.buildMatrixApps(store, soPlugin)
	if err != nil {
		return nil, err
	}
	m := &DetectionMatrix{Store: store}
	m.ProfileSites = store.Sites()
	m.ProfileSkeletons = store.Skeletons()
	for _, class := range []string{ClassBenign, ClassOriginal, ClassNTIMutant, ClassPTIMutant, ClassFragmentRebuilt, ClassSecondOrder} {
		m.Rows = append(m.Rows, MatrixRow{Class: class})
	}
	err = l.forEachMatrixCase(apps.unprotected, st, func(class string, run func(app *webapp.App) (*webapp.Page, error)) error {
		row := m.Row(class)
		row.Cases++
		return apps.probe(&row.Detected, run)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range m.Rows {
		m.TotalCases += r.Cases
	}
	return m, nil
}

// MatrixQueries returns every query the detection-matrix corpus issues,
// in sweep order: the cases of EvaluateMatrix replayed through an
// unprotected app, so tests can hold a query-level property over the whole
// corpus without running a guard.
func (l *Lab) MatrixQueries() ([]string, error) {
	st := &storedState{value: secondOrderBenign}
	soPlugin := newSecondOrderPlugin(st)
	unprotected := l.buildApp()
	unprotected.Install(soPlugin)
	rec := &queryLog{}
	app := l.buildApp(webapp.WithChecker(rec))
	app.Install(soPlugin)
	err := l.forEachMatrixCase(unprotected, st, func(_ string, run func(app *webapp.App) (*webapp.Page, error)) error {
		_, err := run(app)
		return err
	})
	return rec.queries, err
}

// queryLog is a joza.Checker that records each query and allows it.
type queryLog struct{ queries []string }

func (q *queryLog) Check(_ context.Context, req joza.Request) (joza.Verdict, error) {
	q.queries = append(q.queries, req.Query)
	return joza.Verdict{Query: req.Query}, nil
}

func (q *queryLog) Authorize(ctx context.Context, req joza.Request) error {
	_, err := q.Check(ctx, req)
	return err
}

// forEachMatrixCase enumerates the detection-matrix corpus in sweep order,
// calling visit with each case's class and the request that replays it.
// Benign rows (every spec's training values, then the second-order
// route), then per spec its original exploit, NTI-evasion mutant and —
// when Taintless adapts it into a working exploit — PTI-evasion rewrite,
// then the two gap classes. unprotected must host the second-order plugin
// over st: the cases that have to exploit a plain app are validated
// against it, and st is poisoned around the second-order case.
func (l *Lab) forEachMatrixCase(unprotected *webapp.App, st *storedState, visit func(class string, run func(app *webapp.App) (*webapp.Page, error)) error) error {
	specRun := func(s *Spec, payload string) func(app *webapp.App) (*webapp.Page, error) {
		return func(app *webapp.App) (*webapp.Page, error) {
			return app.Handle(s.Name, l.Request(s, payload))
		}
	}
	soRun := func(app *webapp.App) (*webapp.Page, error) {
		return app.Handle(secondOrderPlugin, &webapp.Request{Get: map[string]string{"go": "1"}})
	}

	// Benign row: the training traffic replayed against every technique;
	// every block is a false positive.
	for _, s := range l.Specs {
		for _, v := range benignTrainingValues(s) {
			if err := visit(ClassBenign, specRun(s, v)); err != nil {
				return fmt.Errorf("benign %s: %w", s.Name, err)
			}
		}
	}
	if err := visit(ClassBenign, soRun); err != nil {
		return fmt.Errorf("benign %s: %w", secondOrderPlugin, err)
	}

	// Original exploits and NTI-evasion mutants, all 50 plugins each.
	tl := evasion.NewTaintless(l.Fragments)
	for _, s := range l.Specs {
		if err := visit(ClassOriginal, specRun(s, s.Exploit)); err != nil {
			return fmt.Errorf("original %s: %w", s.Name, err)
		}
		mutant, _ := l.ntiMutation(s)
		if err := visit(ClassNTIMutant, specRun(s, mutant)); err != nil {
			return fmt.Errorf("nti-mutant %s: %w", s.Name, err)
		}
		// PTI-evasion rewrites: only Taintless's working adaptations (the
		// paper's 13) form attack cases.
		rewrite, ok := tl.Evade(s.Exploit)
		if !ok {
			continue
		}
		baseline, err := l.Run(unprotected, s, s.Benign)
		if err != nil {
			return err
		}
		works, err := l.exploitWorks(s, rewrite, l.rewriteFalse(tl, s), baseline)
		if err != nil {
			return fmt.Errorf("pti-mutant %s: %w", s.Name, err)
		}
		if !works {
			continue
		}
		if err := visit(ClassPTIMutant, specRun(s, rewrite)); err != nil {
			return fmt.Errorf("pti-mutant %s: %w", s.Name, err)
		}
	}

	// Gap class 1: fragment-rebuilt short payload on the base64 plugin.
	frSpec := l.SpecByName(fragmentRebuiltPlugin)
	if frSpec == nil {
		return fmt.Errorf("missing plugin %s", fragmentRebuiltPlugin)
	}
	frBaseline, err := l.Run(unprotected, frSpec, frSpec.Benign)
	if err != nil {
		return err
	}
	frPage, err := l.Run(unprotected, frSpec, fragmentRebuiltPayload)
	if err != nil {
		return err
	}
	if frPage.DBError || frPage.Rows <= frBaseline.Rows {
		return fmt.Errorf("fragment-rebuilt payload does not exploit the unprotected app: %+v", frPage)
	}
	if err := visit(ClassFragmentRebuilt, specRun(frSpec, fragmentRebuiltPayload)); err != nil {
		return fmt.Errorf("fragment-rebuilt: %w", err)
	}

	// Gap class 2: second-order-shaped. Poison the stored value and replay
	// the same harmless request.
	soBaseline, err := soRun(unprotected)
	if err != nil {
		return err
	}
	st.value = secondOrderPayload
	defer func() { st.value = secondOrderBenign }()
	soPage, err := soRun(unprotected)
	if err != nil {
		return err
	}
	if soPage.DBError || soPage.Rows <= soBaseline.Rows {
		return fmt.Errorf("second-order payload does not exploit the unprotected app: %+v", soPage)
	}
	if err := visit(ClassSecondOrder, soRun); err != nil {
		return fmt.Errorf("second-order: %w", err)
	}
	return nil
}

// FormatMatrix renders the detection matrix as the Table-IV-style text
// report.
func FormatMatrix(m *DetectionMatrix) string {
	out := "DETECTION MATRIX: per-technique detection by case class\n"
	out += fmt.Sprintf("(%d cases; trained profiles: %d sites, %d skeletons; benign row counts false positives)\n",
		m.TotalCases, m.ProfileSites, m.ProfileSkeletons)
	out += fmt.Sprintf("%-20s %6s %9s %9s %9s %9s %14s\n",
		"Class", "Cases", "NTI", "PTI", "Profile", "NTI+PTI", "NTI+PTI+Prof")
	for _, r := range m.Rows {
		d := r.Detected
		out += fmt.Sprintf("%-20s %6d %5d/%-3d %5d/%-3d %5d/%-3d %5d/%-3d %10d/%-3d\n",
			r.Class, r.Cases,
			d.NTI, r.Cases, d.PTI, r.Cases, d.Profile, r.Cases,
			d.Hybrid, r.Cases, d.HybridProfile, r.Cases)
	}
	out += "(fragment-rebuilt and second-order are the profile stage's gap classes:\n" +
		" both taint analyzers miss them by construction, the skeleton profile does not)\n"
	return out
}

// MatrixJSON serializes the matrix for the CI artifact.
func MatrixJSON(m *DetectionMatrix) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// CompareMatrix gates a matrix against a golden baseline: a regression is
// any attack row where the hybrid+profile technique detects fewer cases
// than the baseline (with at least as many cases evaluated), or any
// benign false positive appearing in a profile-bearing technique.
// Improvements are reported as warnings, not failures.
func CompareMatrix(golden, got *DetectionMatrix) (regressions, improvements []string) {
	for _, gr := range golden.Rows {
		cur := got.Row(gr.Class)
		if cur == nil {
			regressions = append(regressions, fmt.Sprintf("row %s missing from sweep", gr.Class))
			continue
		}
		if gr.Class == ClassBenign {
			if cur.Detected.Profile > gr.Detected.Profile || cur.Detected.HybridProfile > gr.Detected.HybridProfile {
				regressions = append(regressions, fmt.Sprintf(
					"benign false positives: profile %d (golden %d), hybrid+profile %d (golden %d)",
					cur.Detected.Profile, gr.Detected.Profile,
					cur.Detected.HybridProfile, gr.Detected.HybridProfile))
			}
			continue
		}
		if cur.Cases < gr.Cases {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d cases evaluated, golden has %d", gr.Class, cur.Cases, gr.Cases))
			continue
		}
		if cur.Detected.HybridProfile < gr.Detected.HybridProfile {
			regressions = append(regressions, fmt.Sprintf(
				"%s: hybrid+profile detects %d/%d, golden %d/%d",
				gr.Class, cur.Detected.HybridProfile, cur.Cases,
				gr.Detected.HybridProfile, gr.Cases))
		} else if cur.Detected.HybridProfile > gr.Detected.HybridProfile || cur.Cases > gr.Cases {
			improvements = append(improvements, fmt.Sprintf(
				"%s: hybrid+profile detects %d/%d, golden %d/%d",
				gr.Class, cur.Detected.HybridProfile, cur.Cases,
				gr.Detected.HybridProfile, gr.Cases))
		}
	}
	return regressions, improvements
}
