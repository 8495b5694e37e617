// Package webapp is a miniature web-application framework standing in for
// PHP/WordPress in the Joza evaluation. It reproduces the properties the
// attacks and defenses depend on:
//
//   - inputs arrive through multiple sources (GET, POST, cookies, headers);
//   - the framework captures raw inputs at request entry (Joza's
//     preprocessing step) before any transformation;
//   - applications transform inputs — magic quotes, whitespace trimming,
//     base64 decoding — which is exactly what NTI-evading attacks exploit;
//   - functionality is extended by plugins, each with its own (pseudo-PHP)
//     source code from which PTI extracts trusted fragments;
//   - all database calls go through a wrapper that consults the Joza guard
//     before forwarding to the database.
package webapp

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"joza"
	"joza/internal/minidb"
)

// Request carries the inputs of one simulated HTTP request.
type Request struct {
	Get     map[string]string
	Post    map[string]string
	Cookies map[string]string
	Headers map[string]string
}

// Inputs flattens the request into Joza input records (raw values, exactly
// as received — this is what Joza's preprocessing component stores).
func (r *Request) Inputs() []joza.Input {
	var out []joza.Input
	appendSrc := func(source string, m map[string]string) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, joza.Input{Source: source, Name: k, Value: m[k]})
		}
	}
	appendSrc("get", r.Get)
	appendSrc("post", r.Post)
	appendSrc("cookie", r.Cookies)
	appendSrc("header", r.Headers)
	return out
}

// Transform is an input transformation applied by the application before
// the value reaches query construction.
type Transform func(string) string

// MagicQuotes reproduces PHP's magic_quotes_gpc / addslashes: single
// quotes, double quotes, backslashes and NUL bytes are escaped with a
// backslash. WordPress enforces this on all request input.
func MagicQuotes(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'', '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(s[i])
		case 0:
			sb.WriteString(`\0`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// TrimWhitespace trims leading and trailing whitespace, as WordPress does
// for authenticated users' input.
func TrimWhitespace(s string) string { return strings.TrimSpace(s) }

// Base64Decode decodes base64 input, returning the input unchanged when it
// is not valid base64 (the common lenient application behaviour).
func Base64Decode(s string) string {
	if b, err := base64.StdEncoding.DecodeString(s); err == nil {
		return string(b)
	}
	return s
}

// Base64Encode is the attacker-side counterpart of Base64Decode.
func Base64Encode(s string) string {
	return base64.StdEncoding.EncodeToString([]byte(s))
}

// Page is the outcome of handling one request.
type Page struct {
	// Body is the rendered output. A terminated request has an empty body,
	// matching Joza's default blank-page behaviour.
	Body string
	// Rows is the number of database rows the page rendered; blind
	// exploits observe this through the body, the harness reads it
	// directly.
	Rows int
	// DBError is set when the page rendered a database-error path.
	DBError bool
	// Blocked is set when Joza blocked a query during the request.
	Blocked bool
	// Delay is the total virtual time the database spent in SLEEP/
	// BENCHMARK during the request; double-blind exploits observe it.
	Delay time.Duration
	// Queries counts database statements issued (including blocked ones).
	Queries int
}

// Handler is plugin code: it reads inputs from the Ctx, issues queries via
// Ctx.Query, and returns the page body.
type Handler func(c *Ctx) (string, error)

// Plugin is one installable application extension.
type Plugin struct {
	// Name identifies the plugin (used as the route).
	Name string
	// Source is the plugin's pseudo-PHP source code; the Joza installer
	// extracts trusted fragments from it.
	Source string
	// Handle services a request.
	Handle Handler
}

// App hosts plugins over a shared database, optionally protected by a Joza
// guard.
type App struct {
	db      *minidb.DB
	guard   joza.Checker
	plugins map[string]*Plugin
	// transforms are applied, in order, by Ctx input accessors — the
	// application-wide input munging (e.g. WordPress magic quotes).
	transforms []Transform
	// coreSource is the pseudo-PHP source of the "core framework"; its
	// fragments join every plugin's fragments in the guard's set.
	coreSource string
}

// AppOption configures an App.
type AppOption func(*App)

// WithChecker protects the app with c: an in-process *joza.Guard, or a
// daemon-backed *joza.RemoteGuard. Without it the app is unprotected (the
// "plain" configuration of the performance evaluation).
func WithChecker(c joza.Checker) AppOption {
	return func(a *App) { a.guard = c }
}

// WithTransforms sets the application-wide input transformations applied
// by Ctx accessors in order.
func WithTransforms(ts ...Transform) AppOption {
	return func(a *App) { a.transforms = ts }
}

// WithCoreSource sets the framework core's pseudo-PHP source.
func WithCoreSource(src string) AppOption {
	return func(a *App) { a.coreSource = src }
}

// NewApp creates an App over db.
func NewApp(db *minidb.DB, opts ...AppOption) *App {
	a := &App{db: db, plugins: make(map[string]*Plugin)}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Install registers plugins.
func (a *App) Install(plugins ...*Plugin) {
	for _, p := range plugins {
		a.plugins[p.Name] = p
	}
}

// Plugins returns the installed plugin names, sorted.
func (a *App) Plugins() []string {
	out := make([]string, 0, len(a.plugins))
	for name := range a.plugins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AllSources returns the core source plus every plugin source — the corpus
// the Joza installer parses for fragments.
func (a *App) AllSources() []string {
	srcs := []string{a.coreSource}
	for _, name := range a.Plugins() {
		srcs = append(srcs, a.plugins[name].Source)
	}
	return srcs
}

// FragmentTexts extracts the trusted fragment texts from all sources.
func (a *App) FragmentTexts() []string {
	var out []string
	for _, src := range a.AllSources() {
		out = append(out, joza.FragmentsFromSource(src)...)
	}
	return out
}

// ErrNoSuchPlugin is returned by Handle for unknown routes.
var ErrNoSuchPlugin = errors.New("webapp: no such plugin")

// Handle services one request against the named plugin and returns the
// resulting page. It is the context-free wrapper around HandleContext.
func (a *App) Handle(plugin string, req *Request) (*Page, error) {
	return a.HandleContext(context.Background(), plugin, req)
}

// HandleContext services one request bounded by ctx: guard checks issued
// through Ctx.Query observe ctx's deadline and cancellation (the HTTP
// adapter passes the request context, so a client disconnect aborts an
// in-flight check).
func (a *App) HandleContext(ctx context.Context, plugin string, req *Request) (*Page, error) {
	p, ok := a.plugins[plugin]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPlugin, plugin)
	}
	c := &Ctx{app: a, ctx: ctx, req: req, page: &Page{}, site: "plugin:" + plugin}
	// Preprocessing: preserve raw inputs for NTI before the application
	// transforms them.
	c.rawInputs = req.Inputs()
	body, err := p.Handle(c)
	page := c.page
	if err != nil {
		var ae *joza.AttackError
		if errors.As(err, &ae) {
			// Termination policy: blank page.
			page.Blocked = true
			page.Body = ""
			return page, nil
		}
		var ee *minidb.ExecError
		if errors.As(err, &ee) {
			page.DBError = true
			page.Body = "Database error"
			return page, nil
		}
		return nil, err
	}
	page.Body = body
	return page, nil
}

// Ctx is the per-request context passed to plugin handlers.
type Ctx struct {
	app       *App
	ctx       context.Context
	req       *Request
	rawInputs []joza.Input
	page      *Page
	// site is the call-site identity stamped on guard checks issued by
	// Query ("plugin:<name>"), keying the query-skeleton profile stage.
	site string
}

// Context returns the request's context.Context.
func (c *Ctx) Context() context.Context { return c.ctx }

// transformed applies the app-wide transforms to a raw value.
func (c *Ctx) transformed(v string) string {
	for _, t := range c.app.transforms {
		v = t(v)
	}
	return v
}

// Get returns the (transformed) GET parameter.
func (c *Ctx) Get(name string) string { return c.transformed(c.req.Get[name]) }

// Post returns the (transformed) POST parameter.
func (c *Ctx) Post(name string) string { return c.transformed(c.req.Post[name]) }

// Cookie returns the (transformed) cookie value.
func (c *Ctx) Cookie(name string) string { return c.transformed(c.req.Cookies[name]) }

// Header returns the raw header value (headers are not subject to magic
// quotes in PHP).
func (c *Ctx) Header(name string) string { return c.req.Headers[name] }

// RawGet returns the GET parameter without application transforms.
func (c *Ctx) RawGet(name string) string { return c.req.Get[name] }

// Query issues a database statement through the Joza wrapper: when the app
// has a guard, the query is checked against the request's preserved raw
// inputs first, with the serving plugin's identity as the call site for
// the query-skeleton profile stage. Blocked queries return a
// *joza.AttackError (terminate policy) or a synthetic database error
// (error-virtualization policy).
func (c *Ctx) Query(q string) (*minidb.Result, error) {
	c.page.Queries++
	if g := c.app.guard; g != nil {
		if err := g.Authorize(c.ctx, joza.Request{Site: c.site, Query: q, Inputs: c.rawInputs}); err != nil {
			var ae *joza.AttackError
			if !errors.As(err, &ae) {
				// The check was canceled or timed out: the query was
				// neither authorized nor blocked.
				return nil, err
			}
			c.page.Blocked = true
			if ae.Policy == joza.PolicyErrorVirtualize {
				return nil, &minidb.ExecError{Query: q, Msg: "query failed"}
			}
			return nil, err
		}
	}
	res, err := c.app.db.Exec(q)
	if err != nil {
		return nil, err
	}
	c.page.Rows += len(res.Rows)
	c.page.Delay += res.Delay
	return res, nil
}

// RenderRows renders rows as a plain-text table body, the standard page
// body used by testbed plugins.
func RenderRows(res *minidb.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(valueString(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func valueString(v minidb.Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}
