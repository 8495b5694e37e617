package testbed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"joza"
	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/webapp"
)

// pathDiff is a webapp.Checker that runs every check through two front
// doors — the in-process Guard and a HybridClient over a daemon Pool — and
// records any difference between their verdicts. The app proceeds on the
// Guard's verdict.
type pathDiff struct {
	guard  *joza.Guard
	hybrid *daemon.HybridClient
	diffs  []string
}

func (d *pathDiff) AuthorizeContextAt(ctx context.Context, site, query string, inputs []joza.Input) error {
	want, err := d.guard.CheckContextAt(ctx, site, query, inputs)
	if err != nil {
		return err
	}
	got, err := d.hybrid.CheckContextAt(ctx, site, query, inputs)
	if err != nil {
		return err
	}
	if diff := verdictDiff(want, got); diff != "" && len(d.diffs) < 10 {
		d.diffs = append(d.diffs, fmt.Sprintf("site %s, query %q: %s", site, query, diff))
	}
	if want.Attack {
		return &joza.AttackError{Verdict: want, Policy: d.guard.Policy()}
	}
	return nil
}

// verdictDiff compares the parts of a verdict that must not depend on the
// path a check took: the attack bit, each analyzer's attribution and
// reasons, and the NTI markings, which both paths compute in process. Not
// compared: the PTI cover markings, evidence the analyze reply does not
// carry, and snapshot versions, since the test daemon is unversioned.
func verdictDiff(want, got core.Verdict) string {
	if !reflect.DeepEqual(want.NTI.Markings, got.NTI.Markings) {
		return fmt.Sprintf("NTI markings\n  in process:   %+v\n  over the wire: %+v", want.NTI.Markings, got.NTI.Markings)
	}
	if want.Attack != got.Attack {
		return fmt.Sprintf("attack %v in process, %v over the wire", want.Attack, got.Attack)
	}
	for _, r := range []struct {
		name      string
		want, got core.Result
	}{
		{core.AnalyzerNTI, want.NTI, got.NTI},
		{core.AnalyzerPTI, want.PTI, got.PTI},
		{core.AnalyzerProfile, want.Profile, got.Profile},
	} {
		if r.want.Attack != r.got.Attack {
			return fmt.Sprintf("%s attack %v in process, %v over the wire", r.name, r.want.Attack, r.got.Attack)
		}
		if len(r.want.Reasons)+len(r.got.Reasons) > 0 && !reflect.DeepEqual(r.want.Reasons, r.got.Reasons) {
			return fmt.Sprintf("%s reasons\n  in process:   %+v\n  over the wire: %+v", r.name, r.want.Reasons, r.got.Reasons)
		}
	}
	return ""
}

// wireHybrid serves srv over in-memory pipes and returns a HybridClient
// over a two-connection Pool to it, in dialect d.
func wireHybrid(t *testing.T, srv *daemon.Server, d sqltoken.Dialect) *daemon.HybridClient {
	t.Helper()
	pool := daemon.NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, daemon.PoolConfig{Size: 2, Dialect: d})
	h := daemon.NewHybridClient(pool, nti.MustNew(nti.WithDialect(d)), core.PolicyTerminate, daemon.WithDialect(d))
	t.Cleanup(func() { _ = h.Close() })
	return h
}

// TestPathIndependenceDetectionMatrix runs the detection-matrix corpus —
// 266 benign and 117 attack cases — through the in-process Guard and
// through HybridClient→Pool→Server with the same fragments and profiles,
// and requires the same verdict from both on every check. A Postgres
// slice repeats the corpus, plus the dialect-evasion payloads, with both
// paths in the Postgres dialect.
func TestPathIndependenceDetectionMatrix(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	st := &storedState{value: secondOrderBenign}
	store, soPlugin, err := lab.trainProfiles(st)
	if err != nil {
		t.Fatal(err)
	}

	// sweep replays the whole corpus through d and returns the case count.
	sweep := func(t *testing.T, d *pathDiff) int {
		t.Helper()
		unprotected := lab.buildApp()
		unprotected.Install(soPlugin)
		app := lab.buildApp(webapp.WithChecker(d))
		app.Install(soPlugin)
		cases := 0
		err := lab.forEachMatrixCase(unprotected, st, func(class string, run func(app *webapp.App) (*webapp.Page, error)) error {
			cases++
			_, err := run(app)
			var ae *joza.AttackError
			if errors.As(err, &ae) {
				err = nil // a blocked query fails its page; the verdicts were compared
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cases
	}

	t.Run("mysql", func(t *testing.T) {
		guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store))
		if err != nil {
			t.Fatal(err)
		}
		analyzer := pti.NewCached(pti.New(lab.Fragments), pti.CacheQueryAndStructure, 4096)
		d := &pathDiff{guard: guard, hybrid: wireHybrid(t, daemon.NewServer(analyzer, daemon.WithProfiles(store)), sqltoken.MySQL)}
		if cases := sweep(t, d); cases != 383 {
			t.Errorf("swept %d cases, want the matrix's 383", cases)
		}
		if m := d.hybrid.Metrics(); m.ProfileAttacks == 0 || m.NTIAttacks == 0 || m.PTIAttacks == 0 {
			t.Errorf("some analyzer never fired over the wire: %+v", m)
		}
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})

	t.Run("postgres", func(t *testing.T) {
		guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithDialect(joza.DialectPostgres))
		if err != nil {
			t.Fatal(err)
		}
		analyzer := pti.NewCached(pti.New(lab.Fragments, pti.WithDialect(sqltoken.Postgres)), pti.CacheQueryAndStructure, 4096)
		d := &pathDiff{guard: guard, hybrid: wireHybrid(t, daemon.NewServer(analyzer), sqltoken.Postgres)}
		if cases := sweep(t, d); cases != 383 {
			t.Errorf("swept %d cases, want the matrix's 383", cases)
		}
		for _, c := range dialectEvasionPayloads() {
			inputs := []joza.Input{{Source: "get", Name: "p", Value: c.Payload}}
			if err := d.AuthorizeContextAt(context.Background(), "", c.Query, inputs); err == nil {
				t.Errorf("%s: payload %q passed the Postgres guard", c.Class, c.Payload)
			}
		}
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})
}
