package webapp

import (
	"errors"
	"strings"
	"testing"

	"joza"
	"joza/internal/minidb"
)

const pluginSource = `<?php
$id = $_GET['id'];
$q = "SELECT id, title FROM posts WHERE id=$id LIMIT 5";
$res = mysql_query($q);
`

func listPlugin() *Plugin {
	return &Plugin{
		Name:   "list",
		Source: pluginSource,
		Handle: func(c *Ctx) (string, error) {
			res, err := c.Query("SELECT id, title FROM posts WHERE id=" + c.Get("id") + " LIMIT 5")
			if err != nil {
				return "", err
			}
			return RenderRows(res), nil
		},
	}
}

func newDB(t *testing.T) *minidb.DB {
	t.Helper()
	db := minidb.New("wp")
	db.MustExec("CREATE TABLE posts (id INT, title TEXT)")
	db.MustExec("INSERT INTO posts VALUES (1, 'Hello'), (2, 'World')")
	return db
}

func protectedApp(t *testing.T, opts ...AppOption) *App {
	t.Helper()
	db := newDB(t)
	app := NewApp(db, opts...)
	app.Install(listPlugin())
	g, err := joza.New(joza.WithFragments(app.FragmentTexts()))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with guard, preserving any supplied options.
	app2 := NewApp(db, append(opts, WithChecker(g))...)
	app2.Install(listPlugin())
	return app2
}

func TestBenignRequest(t *testing.T) {
	app := protectedApp(t)
	page, err := app.Handle("list", &Request{Get: map[string]string{"id": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if page.Blocked || page.DBError {
		t.Fatalf("page = %+v", page)
	}
	if !strings.Contains(page.Body, "Hello") || page.Rows != 1 {
		t.Errorf("body = %q rows = %d", page.Body, page.Rows)
	}
}

func TestAttackBlockedTerminate(t *testing.T) {
	app := protectedApp(t)
	page, err := app.Handle("list", &Request{Get: map[string]string{"id": "-1 OR 1=1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Blocked {
		t.Fatal("attack not blocked")
	}
	if page.Body != "" {
		t.Errorf("terminate policy must yield a blank page, got %q", page.Body)
	}
}

func TestAttackErrorVirtualization(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(listPlugin())
	g, err := joza.New(
		joza.WithFragments(app.FragmentTexts()),
		joza.WithPolicy(joza.PolicyErrorVirtualize),
	)
	if err != nil {
		t.Fatal(err)
	}
	app = NewApp(db, WithChecker(g))
	app.Install(listPlugin())
	page, err := app.Handle("list", &Request{Get: map[string]string{"id": "-1 OR 1=1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Blocked || !page.DBError {
		t.Fatalf("page = %+v", page)
	}
	if page.Body != "Database error" {
		t.Errorf("body = %q", page.Body)
	}
}

func TestUnprotectedAttackSucceeds(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(listPlugin())
	page, err := app.Handle("list", &Request{Get: map[string]string{"id": "-1 OR 1=1"}})
	if err != nil {
		t.Fatal(err)
	}
	if page.Blocked {
		t.Fatal("unprotected app blocked")
	}
	if page.Rows != 2 {
		t.Errorf("tautology should leak both rows, got %d", page.Rows)
	}
}

func TestMagicQuotesTransform(t *testing.T) {
	if got := MagicQuotes(`a'b"c\d`); got != `a\'b\"c\\d` {
		t.Errorf("MagicQuotes = %q", got)
	}
	if got := MagicQuotes("x\x00y"); got != `x\0y` {
		t.Errorf("MagicQuotes NUL = %q", got)
	}
	if got := MagicQuotes("plain"); got != "plain" {
		t.Errorf("MagicQuotes plain = %q", got)
	}
}

func TestTransformsAppliedInOrder(t *testing.T) {
	db := newDB(t)
	app := NewApp(db, WithTransforms(TrimWhitespace, MagicQuotes))
	app.Install(&Plugin{
		Name: "echo",
		Handle: func(c *Ctx) (string, error) {
			return c.Get("v"), nil
		},
	})
	page, err := app.Handle("echo", &Request{Get: map[string]string{"v": "  it's  "}})
	if err != nil {
		t.Fatal(err)
	}
	if page.Body != `it\'s` {
		t.Errorf("body = %q", page.Body)
	}
}

func TestBase64Decode(t *testing.T) {
	if Base64Decode("aGVsbG8=") != "hello" {
		t.Error("valid base64")
	}
	if Base64Decode("!!notb64!!") != "!!notb64!!" {
		t.Error("invalid base64 passthrough")
	}
}

func TestRequestInputsOrderAndSources(t *testing.T) {
	r := &Request{
		Get:     map[string]string{"b": "2", "a": "1"},
		Post:    map[string]string{"p": "3"},
		Cookies: map[string]string{"c": "4"},
		Headers: map[string]string{"h": "5"},
	}
	ins := r.Inputs()
	if len(ins) != 5 {
		t.Fatalf("inputs = %v", ins)
	}
	if ins[0].Key() != "get:a" || ins[1].Key() != "get:b" ||
		ins[2].Key() != "post:p" || ins[3].Key() != "cookie:c" || ins[4].Key() != "header:h" {
		t.Errorf("inputs = %v", ins)
	}
}

func TestRawVsTransformedAccessors(t *testing.T) {
	db := newDB(t)
	app := NewApp(db, WithTransforms(MagicQuotes))
	app.Install(&Plugin{
		Name: "acc",
		Handle: func(c *Ctx) (string, error) {
			return c.RawGet("v") + "|" + c.Get("v") + "|" + c.Header("H"), nil
		},
	})
	page, err := app.Handle("acc", &Request{
		Get:     map[string]string{"v": "it's"},
		Headers: map[string]string{"H": "h'v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if page.Body != `it's|it\'s|h'v` {
		t.Errorf("body = %q", page.Body)
	}
}

func TestNoSuchPlugin(t *testing.T) {
	app := NewApp(newDB(t))
	if _, err := app.Handle("missing", &Request{}); !errors.Is(err, ErrNoSuchPlugin) {
		t.Errorf("err = %v", err)
	}
}

func TestDelayPropagation(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(&Plugin{
		Name: "slow",
		Handle: func(c *Ctx) (string, error) {
			res, err := c.Query("SELECT SLEEP(3)")
			if err != nil {
				return "", err
			}
			return RenderRows(res), nil
		},
	})
	page, err := app.Handle("slow", &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if page.Delay.Seconds() != 3 {
		t.Errorf("delay = %v", page.Delay)
	}
}

func TestQueriesCounted(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(&Plugin{
		Name: "multi",
		Handle: func(c *Ctx) (string, error) {
			for i := 0; i < 3; i++ {
				if _, err := c.Query("SELECT COUNT(*) FROM posts"); err != nil {
					return "", err
				}
			}
			return "ok", nil
		},
	})
	page, err := app.Handle("multi", &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if page.Queries != 3 {
		t.Errorf("queries = %d", page.Queries)
	}
}

func TestPluginsAndSources(t *testing.T) {
	db := newDB(t)
	app := NewApp(db, WithCoreSource(`<?php $q = 'SELECT core';`))
	app.Install(listPlugin(), &Plugin{Name: "aaa", Source: `<?php $x = 'SELECT aaa';`})
	if got := app.Plugins(); len(got) != 2 || got[0] != "aaa" || got[1] != "list" {
		t.Errorf("Plugins = %v", got)
	}
	srcs := app.AllSources()
	if len(srcs) != 3 || !strings.Contains(srcs[0], "core") {
		t.Errorf("sources = %d", len(srcs))
	}
	texts := app.FragmentTexts()
	joined := strings.Join(texts, "\n")
	if !strings.Contains(joined, "SELECT core") || !strings.Contains(joined, "SELECT aaa") {
		t.Errorf("fragments = %v", texts)
	}
}

func TestRenderRows(t *testing.T) {
	res := &minidb.Result{Rows: [][]minidb.Value{{int64(1), "a"}, {nil, 2.5}}}
	got := RenderRows(res)
	if got != "1 | a\nNULL | 2.5\n" {
		t.Errorf("RenderRows = %q", got)
	}
}

func TestDatabaseErrorPage(t *testing.T) {
	db := newDB(t)
	app := NewApp(db)
	app.Install(&Plugin{
		Name: "bad",
		Handle: func(c *Ctx) (string, error) {
			_, err := c.Query("SELECT * FROM missing")
			return "", err
		},
	})
	page, err := app.Handle("bad", &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !page.DBError || page.Body != "Database error" {
		t.Errorf("page = %+v", page)
	}
}

func TestMagicQuotesEvasionEndToEnd(t *testing.T) {
	// The full NTI-evasion scenario: WordPress-style magic quotes inflate
	// the comment block; NTI misses, PTI catches, the hybrid blocks.
	db := newDB(t)
	plain := NewApp(db, WithTransforms(MagicQuotes))
	plain.Install(listPlugin())
	g, err := joza.New(joza.WithFragments(plain.FragmentTexts()))
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(db, WithTransforms(MagicQuotes), WithChecker(g))
	app.Install(listPlugin())

	payload := "-1 OR 1=1 /*''''''''*/"
	page, err := app.Handle("list", &Request{Get: map[string]string{"id": payload}})
	if err != nil {
		t.Fatal(err)
	}
	if !page.Blocked {
		t.Error("hybrid must block the magic-quotes evasion")
	}
	// Sanity: unprotected, the same attack leaks every row.
	unprotected := NewApp(db, WithTransforms(MagicQuotes))
	unprotected.Install(listPlugin())
	page, err = unprotected.Handle("list", &Request{Get: map[string]string{"id": payload}})
	if err != nil {
		t.Fatal(err)
	}
	if page.Rows != 2 {
		t.Errorf("unprotected evasion leaked %d rows, want 2", page.Rows)
	}
}
