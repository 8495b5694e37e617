// The httpserver example wires Joza into a real net/http application: a
// middleware captures the raw request inputs at entry (Joza's
// preprocessing step), handlers build queries the vulnerable way, and the
// Joza-wrapped query helper gates every statement. The example starts the
// server, drives benign and malicious requests against it over HTTP, and
// prints the outcomes.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"joza"
	"joza/internal/minidb"
)

const appSource = `<?php
$q1 = 'SELECT id, title FROM articles WHERE id=';
$q2 = 'SELECT id, title FROM articles WHERE title LIKE \'%';
$q2b = '%\' LIMIT 10';
`

// server bundles the database and the guard behind HTTP handlers.
type server struct {
	db    *minidb.DB
	guard joza.Checker
}

type ctxKey struct{}

// captureInputs is the preprocessing middleware: it snapshots every raw
// input of the request before any handler code can transform it.
func captureInputs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var inputs []joza.Input
		if err := r.ParseForm(); err == nil {
			for name, values := range r.Form {
				for _, v := range values {
					inputs = append(inputs, joza.Input{Source: "get", Name: name, Value: v})
				}
			}
		}
		for _, c := range r.Cookies() {
			inputs = append(inputs, joza.Input{Source: "cookie", Name: c.Name, Value: c.Value})
		}
		ctx := context.WithValue(r.Context(), ctxKey{}, inputs)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func requestInputs(r *http.Request) []joza.Input {
	inputs, _ := r.Context().Value(ctxKey{}).([]joza.Input)
	return inputs
}

// query is the Joza-wrapped database call.
func (s *server) query(r *http.Request, q string) (*minidb.Result, error) {
	if err := s.guard.Authorize(r.Context(), joza.Request{Query: q, Inputs: requestInputs(r)}); err != nil {
		return nil, err
	}
	return s.db.Exec(q)
}

func (s *server) handleArticle(w http.ResponseWriter, r *http.Request) {
	// Deliberately vulnerable: raw input concatenation.
	q := "SELECT id, title FROM articles WHERE id=" + r.URL.Query().Get("id")
	s.respond(w, r, q)
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := "SELECT id, title FROM articles WHERE title LIKE '%" + r.URL.Query().Get("q") + "%' LIMIT 10"
	s.respond(w, r, q)
}

func (s *server) respond(w http.ResponseWriter, r *http.Request, q string) {
	res, err := s.query(r, q)
	var attack *joza.AttackError
	switch {
	case errors.As(err, &attack):
		// Termination policy: blank page, 403.
		w.WriteHeader(http.StatusForbidden)
	case err != nil:
		http.Error(w, "database error", http.StatusInternalServerError)
	default:
		for _, row := range res.Rows {
			fmt.Fprintf(w, "%v | %v\n", row[0], row[1])
		}
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db := minidb.New("news")
	db.MustExec("CREATE TABLE articles (id INT, title TEXT)")
	db.MustExec("INSERT INTO articles VALUES (1, 'Go 1.22 released'), (2, 'Joza reproduced'), (3, 'Internal memo (secret)')")

	var audit bytes.Buffer
	guard, err := joza.New(
		joza.WithFragments(joza.FragmentsFromSource(appSource)),
		joza.WithAuditLog(&audit),
	)
	if err != nil {
		return err
	}
	s := &server{db: db, guard: guard}

	mux := http.NewServeMux()
	mux.HandleFunc("/article", s.handleArticle)
	mux.HandleFunc("/search", s.handleSearch)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: captureInputs(mux), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() { _ = httpSrv.Close() }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	get := func(label, path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		fmt.Printf("GET %-52s -> %d, %d bytes\n", path, resp.StatusCode, len(body))
		if label == "attack" && resp.StatusCode != http.StatusForbidden {
			return fmt.Errorf("attack not blocked: %s", body)
		}
		if label == "benign" && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("benign request failed: %s", body)
		}
		return nil
	}

	checks := []struct{ label, path string }{
		{"benign", "/article?id=1"},
		{"benign", "/search?q=Joza"},
		{"attack", "/article?id=0%20OR%201=1"},
		{"attack", "/article?id=-1%20UNION%20SELECT%20id,%20title%20FROM%20articles"},
		{"attack", "/search?q=%25%27%20OR%201=1%20--%20"},
	}
	for _, c := range checks {
		if err := get(c.label, c.path); err != nil {
			return err
		}
	}
	fmt.Println("\nall benign requests served, all attacks blocked with 403")
	fmt.Printf("\naudit log (%d entries):\n", strings.Count(audit.String(), "\n"))
	for _, line := range strings.Split(strings.TrimSpace(audit.String()), "\n") {
		if len(line) > 110 {
			line = line[:110] + "...\""
		}
		fmt.Println(" ", line)
	}
	return nil
}
