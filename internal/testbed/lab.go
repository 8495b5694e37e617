package testbed

import (
	"fmt"
	"strings"

	"joza"
	"joza/internal/fragments"
	"joza/internal/minidb"
	"joza/internal/webapp"
)

// coreSource is the pseudo-PHP source of the simulated WordPress core. Its
// literals form the base of the global fragment vocabulary. Deliberate
// properties (mirroring Table III and Section V):
//
//   - uppercase SQL statement skeletons appear only as full query strings,
//     so short uppercase attack tokens (UNION, SELECT, AND, OR) are not
//     individually coverable;
//   - a dynamic-condition builder contributes lowercase connector
//     fragments (" and ", " or ", " union ", " select ", " from ") plus
//     single-character operator fragments ("=", ">", "<", "-", ", ") — the
//     vocabulary Taintless exploits;
//   - no fragment covers SQL function names, NULL, parentheses-as-a-token,
//     or comment blocks.
const coreSource = `<?php
/* wp-core (simulated) — query construction snippets */
$q_post   = 'SELECT id, title FROM posts WHERE id=';
$q_new    = 'SELECT id, title FROM posts WHERE views>';
$q_opt    = 'SELECT name, value FROM options WHERE name=';
$q_cmt    = 'INSERT INTO comments (post_id, author, body) VALUES (';
$q_upd    = 'UPDATE options SET value=';
$q_where1 = ' WHERE 1 ';
$ord      = ' ORDER BY ';
$grp      = ' GROUP BY ';
$lim      = ' LIMIT ';
$cast     = 'CAST';
/* dynamic condition builder */
$and   = ' and ';
$or    = ' or ';
$un    = ' union ';
$sel   = ' select ';
$frm   = ' from ';
$sep   = ', ';
$eq    = '=';
$gt    = '>';
$lt    = '<';
$dash  = '-';
$hash  = '#';
$one   = '1';
$zero  = '0';
$quot  = '\'\'';
$tick  = '` + "``" + `';
`

// Lab is the assembled WP-SQLI-LAB environment.
type Lab struct {
	// DB is the shared backing database.
	DB *minidb.DB
	// Specs are the 50 plugin specifications.
	Specs []*Spec
	// Guard is the full hybrid guard over the global fragment set.
	Guard *joza.Guard
	// Fragments is the global trusted fragment set (core + all plugins).
	Fragments *fragments.Set

	// Unprotected, NTIOnly, PTIOnly and Protected are the four app
	// configurations the security evaluation exercises.
	Unprotected *webapp.App
	NTIOnly     *webapp.App
	PTIOnly     *webapp.App
	Protected   *webapp.App
}

// NewLab builds the full testbed: database schema and seed data, the 50
// plugins, the global fragment set, and the four app configurations.
func NewLab() (*Lab, error) {
	db := minidb.New("wordpress")
	if err := seedSchema(db); err != nil {
		return nil, err
	}
	lab := &Lab{DB: db, Specs: Specs()}

	build := func(opts ...webapp.AppOption) *webapp.App {
		base := []webapp.AppOption{
			webapp.WithCoreSource(coreSource),
			// WordPress-wide input munging: whitespace trimming and magic
			// quotes, in that order.
			webapp.WithTransforms(webapp.TrimWhitespace, webapp.MagicQuotes),
		}
		app := webapp.NewApp(db, append(base, opts...)...)
		for _, s := range lab.Specs {
			app.Install(s.WebPlugin())
		}
		return app
	}

	lab.Unprotected = build()
	texts := lab.Unprotected.FragmentTexts()
	lab.Fragments = fragments.NewSet(texts)

	var err error
	lab.Guard, err = joza.New(joza.WithFragmentSet(lab.Fragments))
	if err != nil {
		return nil, fmt.Errorf("build guard: %w", err)
	}
	ntiGuard, err := joza.New(joza.WithoutPTI())
	if err != nil {
		return nil, fmt.Errorf("build NTI guard: %w", err)
	}
	ptiGuard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithoutNTI())
	if err != nil {
		return nil, fmt.Errorf("build PTI guard: %w", err)
	}
	lab.Protected = build(webapp.WithChecker(lab.Guard))
	lab.NTIOnly = build(webapp.WithChecker(ntiGuard))
	lab.PTIOnly = build(webapp.WithChecker(ptiGuard))
	return lab, nil
}

// seedSchema creates and populates the shared tables.
func seedSchema(db *minidb.DB) error {
	stmts := []string{
		"CREATE TABLE posts (id INT, title TEXT, views INT)",
		"INSERT INTO posts VALUES (1, 'Hello World', 10), (2, 'About Us', 42), (3, 'Contact', 7), (4, 'News Roundup', 3)",
		"CREATE TABLE users (id INT, username TEXT, password TEXT)",
		"INSERT INTO users VALUES (1, 'admin', '" + leakSecret + "'), (2, 'editor', 'editorpass')",
		"CREATE TABLE comments (id INT, post_id INT, author TEXT, body TEXT)",
		"INSERT INTO comments VALUES (1, 1, 'alice', 'first post'), (2, 1, 'bob', 'nice article'), (3, 2, 'carol', 'thanks')",
		"CREATE TABLE options (id INT, name TEXT, value TEXT)",
		"INSERT INTO options VALUES (1, 'siteurl', 'http://example.test'), (2, 'template', 'twentyfourteen')",
		"CREATE TABLE products (id INT, name TEXT, price INT)",
		"INSERT INTO products VALUES (1, 'Widget', 19), (2, 'Gadget', 35), (3, 'Doodad', 7)",
		"CREATE TABLE events (id INT, name TEXT, venue TEXT)",
		"INSERT INTO events VALUES (1, 'Meetup', 'Main Hall'), (2, 'Workshop', 'Lab B')",
		"CREATE TABLE ads (id INT, banner TEXT, clicks INT)",
		"INSERT INTO ads VALUES (1, 'banner-top.png', 120), (2, 'banner-side.png', 48)",
		"CREATE TABLE downloads (id INT, file TEXT, hits INT)",
		"INSERT INTO downloads VALUES (1, 'report.pdf', 9), (2, 'slides.ppt', 4)",
		"CREATE TABLE ratings (id INT, stars INT, voter TEXT)",
		"INSERT INTO ratings VALUES (1, 5, 'alice'), (2, 3, 'bob')",
		"CREATE TABLE videos (id INT, title TEXT, url TEXT)",
		"INSERT INTO videos VALUES (1, 'Intro Video', '/v/1'), (2, 'Demo', '/v/2')",
		"CREATE TABLE links (id INT, name TEXT, url TEXT)",
		"INSERT INTO links VALUES (1, 'Home', 'http://example.test'), (2, 'Blog', 'http://example.test/blog')",
	}
	for _, q := range stmts {
		if _, err := db.Exec(q); err != nil {
			return fmt.Errorf("seed %q: %w", q, err)
		}
	}
	return nil
}

// SpecByName returns the spec with the given plugin name.
func (l *Lab) SpecByName(name string) *Spec {
	for _, s := range l.Specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Request builds the exploit (or benign) request for a spec: the payload
// is placed on the vulnerable parameter, already encoded for transport.
func (l *Lab) Request(s *Spec, payload string) *webapp.Request {
	return &webapp.Request{Get: map[string]string{s.Param: s.TransportValue(payload)}}
}

// Run performs one request against the chosen app configuration.
func (l *Lab) Run(app *webapp.App, s *Spec, payload string) (*webapp.Page, error) {
	return app.Handle(s.Name, l.Request(s, payload))
}

// CaseStudy is one of the Section V-B applications (Drupal, Joomla,
// osCommerce analogues).
type CaseStudy struct {
	Name    string
	Version string
	Ref     string
	// App is the application protected by its own guard; UnprotectedApp
	// and the per-analyzer variants mirror the Lab fields.
	Unprotected *webapp.App
	NTIOnly     *webapp.App
	PTIOnly     *webapp.App
	Protected   *webapp.App
	// Plugin is the single vulnerable route.
	Plugin string
	// Exploit and Benign are the request values.
	Exploit map[string]string
	Benign  map[string]string
	// Works decides whether an exploit attempt succeeded.
	Works func(page *webapp.Page, baseline *webapp.Page) bool
}

// CaseStudies builds the three case-study applications. Each reproduces
// the structural shape of the original vulnerability:
//
//   - Drupal (CVE-2014-3704): user-controlled array keys become
//     placeholder names inside an otherwise-parameterized query;
//   - Joomla (CVE-2013-1453-style): a serialized object smuggled through
//     an encoded cookie rebuilds a query from attacker-set fields;
//   - osCommerce: a tautology against an application whose own vocabulary
//     contains OR and = — the case where PTI alone is blind.
func CaseStudies() ([]*CaseStudy, error) {
	var out []*CaseStudy
	drupal, err := drupalCase()
	if err != nil {
		return nil, err
	}
	joomla, err := joomlaCase()
	if err != nil {
		return nil, err
	}
	osc, err := osCommerceCase()
	if err != nil {
		return nil, err
	}
	out = append(out, drupal, joomla, osc)
	return out, nil
}

// buildCaseApps constructs the four protection configurations for a case
// study over db with the given plugin and sources.
func buildCaseApps(cs *CaseStudy, db *minidb.DB, plugin *webapp.Plugin, transforms []webapp.Transform) error {
	build := func() *webapp.App {
		app := webapp.NewApp(db, webapp.WithTransforms(transforms...))
		app.Install(plugin)
		return app
	}
	cs.Unprotected = build()
	texts := cs.Unprotected.FragmentTexts()
	set := fragments.NewSet(texts)

	full, err := joza.New(joza.WithFragmentSet(set))
	if err != nil {
		return err
	}
	ntiG, err := joza.New(joza.WithoutPTI())
	if err != nil {
		return err
	}
	ptiG, err := joza.New(joza.WithFragmentSet(set), joza.WithoutNTI())
	if err != nil {
		return err
	}
	mk := func(g *joza.Guard) *webapp.App {
		app := webapp.NewApp(db, webapp.WithTransforms(transforms...), webapp.WithChecker(g))
		app.Install(plugin)
		return app
	}
	cs.Protected = mk(full)
	cs.NTIOnly = mk(ntiG)
	cs.PTIOnly = mk(ptiG)
	return nil
}

func drupalCase() (*CaseStudy, error) {
	db := minidb.New("drupal")
	db.MustExec("CREATE TABLE users (id INT, name TEXT, pass TEXT)")
	db.MustExec("INSERT INTO users VALUES (1, 'admin', '" + leakSecret + "'), (2, 'guest', 'guestpass')")

	// The vulnerable expandArguments pattern: the *key* of a form array
	// becomes part of a placeholder name in the prepared-statement text.
	// The attacker URL-encodes the key; the framework decodes it, so NTI's
	// raw input (encoded) no longer corresponds to the query.
	src := `<?php
$key = array_keys($_POST['name'])[0];
$query = 'SELECT id, name FROM users WHERE name IN (:name_' . $key . ')';
$stmt = $db->prepare($query);
`
	plugin := &webapp.Plugin{
		Name:   "user-login",
		Source: src,
		Handle: func(c *webapp.Ctx) (string, error) {
			key := urlDecode(c.Post("name_key"))
			// The "prepared" query text itself is attacker-influenced; the
			// placeholder is then bound to a harmless value.
			q := "SELECT id, name FROM users WHERE name IN (" + key + ")"
			q = strings.ReplaceAll(q, ":name_0", "'guest'")
			res, err := c.Query(q)
			if err != nil {
				return "", err
			}
			return webapp.RenderRows(res), nil
		},
	}
	cs := &CaseStudy{
		Name: "Drupal", Version: "7.31", Ref: "CVE-2014-3704",
		Plugin: "user-login",
		// URL-encoded key: "0) UNION SELECT name, pass FROM users -- -"
		Exploit: map[string]string{
			"name_key": ":name_0%29%20UNION%20SELECT%20name%2C%20pass%20FROM%20users%20--%20-",
		},
		Benign: map[string]string{"name_key": ":name_0"},
		Works: func(page, baseline *webapp.Page) bool {
			return strings.Contains(page.Body, leakSecret)
		},
	}
	if err := buildCaseApps(cs, db, plugin, []webapp.Transform{webapp.MagicQuotes}); err != nil {
		return nil, err
	}
	return cs, nil
}

func joomlaCase() (*CaseStudy, error) {
	db := minidb.New("joomla")
	db.MustExec("CREATE TABLE sessions (id INT, token TEXT, userid INT)")
	db.MustExec("INSERT INTO sessions VALUES (1, 'tok1', 1)")

	// The object-injection pattern: a base64 cookie deserializes into an
	// object whose fields build a query on destruction. The raw cookie
	// bears no textual relation to the query, defeating NTI.
	src := `<?php
$obj = unserialize(base64_decode($_COOKIE['session']));
$query = 'SELECT id, token FROM sessions WHERE userid=' . $obj->uid;
`
	plugin := &webapp.Plugin{
		Name:   "session-restore",
		Source: src,
		Handle: func(c *webapp.Ctx) (string, error) {
			// "Deserialize": cookie is base64("uid=<expr>").
			decoded := webapp.Base64Decode(c.Cookie("session"))
			uid := strings.TrimPrefix(decoded, "uid=")
			res, err := c.Query("SELECT id, token FROM sessions WHERE userid=" + uid)
			if err != nil {
				return "", err
			}
			return webapp.RenderRows(res), nil
		},
	}
	exploitUID := "uid=1 AND IF(LENGTH(database())>3, SLEEP(3), 0)"
	cs := &CaseStudy{
		Name: "Joomla", Version: "3.0.1", Ref: "CVE-2013-1453",
		Plugin:  "session-restore",
		Exploit: map[string]string{"session": webapp.Base64Encode(exploitUID)},
		Benign:  map[string]string{"session": webapp.Base64Encode("uid=1")},
		Works: func(page, baseline *webapp.Page) bool {
			return page.Delay.Seconds() >= 3
		},
	}
	if err := buildCaseApps(cs, db, plugin, []webapp.Transform{webapp.MagicQuotes}); err != nil {
		return nil, err
	}
	// Cookies are on the Cookies map, not Get; adapt the request builders
	// in the evaluation via Exploit/Benign maps (see RunCase).
	return cs, nil
}

func osCommerceCase() (*CaseStudy, error) {
	db := minidb.New("oscommerce")
	db.MustExec("CREATE TABLE zones (id INT, zone TEXT, country INT)")
	db.MustExec("INSERT INTO zones VALUES (1, 'East', 1), (2, 'West', 1), (3, 'North', 2)")

	// The osCommerce geo_zones tautology: the application's own source
	// contains the fragments "OR" and "=" (uppercase, as the original
	// exploit uses them), so PTI cannot flag the payload — only NTI can.
	src := `<?php
$zid = $_GET['zID'];
$query = 'SELECT id, zone FROM zones WHERE country=' . $zid;
/* query-builder vocabulary used elsewhere in osCommerce */
$c1 = ' OR ';
$c2 = '=';
$c3 = '1';
$c4 = ' AND ';
`
	plugin := &webapp.Plugin{
		Name:   "geo-zones",
		Source: src,
		Handle: func(c *webapp.Ctx) (string, error) {
			res, err := c.Query("SELECT id, zone FROM zones WHERE country=" + c.Get("zID"))
			if err != nil {
				return "", err
			}
			return webapp.RenderRows(res), nil
		},
	}
	cs := &CaseStudy{
		Name: "osCommerce", Version: "2.3.3.4", Ref: "OSVDB-103365",
		Plugin:  "geo-zones",
		Exploit: map[string]string{"zID": "1 OR 1=1"},
		Benign:  map[string]string{"zID": "1"},
		Works: func(page, baseline *webapp.Page) bool {
			return page.Rows > baseline.Rows
		},
	}
	if err := buildCaseApps(cs, db, plugin, []webapp.Transform{webapp.MagicQuotes}); err != nil {
		return nil, err
	}
	return cs, nil
}

// RunCase performs one request against a case-study app configuration.
// The Joomla case sends its value as a cookie; the Drupal case as POST;
// osCommerce as GET.
func RunCase(cs *CaseStudy, app *webapp.App, values map[string]string) (*webapp.Page, error) {
	req := &webapp.Request{}
	switch cs.Name {
	case "Joomla":
		req.Cookies = values
	case "Drupal":
		req.Post = values
	default:
		req.Get = values
	}
	return app.Handle(cs.Plugin, req)
}

// urlDecode resolves %XX escapes (a minimal urldecode).
func urlDecode(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				sb.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		if s[i] == '+' {
			sb.WriteByte(' ')
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
