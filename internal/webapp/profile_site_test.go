package webapp

import (
	"testing"

	"joza"
	"joza/internal/profile"
)

// TestPluginCallSiteThreadsToProfiles drives the full learning-then-
// enforcement loop through the framework: handlers never name their call
// site — the framework stamps "plugin:<name>" on every guard check — so a
// benign training run keys profiles by plugin and an enforcement run
// catches a skeleton change NTI and PTI both miss.
func TestPluginCallSiteThreadsToProfiles(t *testing.T) {
	db := newDB(t)
	// The plugin's vocabulary includes the OR-clause fragment, so PTI
	// trusts the rebuilt attack below; base64 decoding hides the payload
	// from NTI.
	src := pluginSource + `
$alt = " OR id=";
`
	evasive := &Plugin{
		Name:   "list",
		Source: src,
		Handle: func(c *Ctx) (string, error) {
			res, err := c.Query("SELECT id, title FROM posts WHERE id=" + Base64Decode(c.RawGet("id")) + " LIMIT 5")
			if err != nil {
				return "", err
			}
			return RenderRows(res), nil
		},
	}

	newApp := func(g *joza.Guard) *App {
		app := NewApp(db, WithChecker(g))
		app.Install(evasive)
		return app
	}

	// Learning pass over benign traffic.
	rec := joza.NewProfileRecorder()
	gLearn, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(src)),
		joza.WithProfileLearning(rec))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"1", "2"} {
		page, err := newApp(gLearn).Handle("list", &Request{Get: map[string]string{"id": Base64Encode(id)}})
		if err != nil {
			t.Fatal(err)
		}
		if page.Blocked {
			t.Fatalf("benign training request blocked: %+v", page)
		}
	}
	st := rec.Store()
	if st.Lookup("plugin:list", profile.Skeleton("SELECT id, title FROM posts WHERE id=1 LIMIT 5")) != profile.SkeletonSeen {
		t.Fatalf("framework did not record under plugin:list; store:\n%s", st.Bytes())
	}

	// Enforcement: the base64-wrapped, fragment-rebuilt payload evades
	// both taint analyzers but lands on an unseen skeleton.
	gEnforce, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(src)),
		joza.WithProfileStore(st))
	if err != nil {
		t.Fatal(err)
	}
	payload := "1 OR id=2"
	page, err := newApp(gEnforce).Handle("list", &Request{Get: map[string]string{"id": Base64Encode(payload)}})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Blocked {
		t.Fatalf("profile stage did not block the evasive attack: %+v", page)
	}

	// The same benign traffic still serves.
	page, err = newApp(gEnforce).Handle("list", &Request{Get: map[string]string{"id": Base64Encode("1")}})
	if err != nil {
		t.Fatal(err)
	}
	if page.Blocked {
		t.Fatalf("benign request blocked under enforcement: %+v", page)
	}
}
