package nti

import (
	"context"
	"reflect"
	"testing"

	"joza/internal/core"
	"joza/internal/sqltoken"
)

// TestInertMatchSkipsLex pins the lex skip: an input matching the query
// only as digits is marked exactly as before, with no reason and no lex
// (the caller's storage keeps another query's tokens), while a matched
// input holding any other byte still lexes and still flags.
func TestInertMatchSkipsLex(t *testing.T) {
	const q = "SELECT * FROM posts WHERE id=42 OR 1=1"
	const other = "SELECT 1"
	a := MustNew()
	buf := sqltoken.Lex(other)
	var res core.Result
	err := a.AnalyzeBuf(context.Background(), q, nil, &buf, []Input{{Source: "get", Name: "id", Value: "42"}}, nil, &res)
	if err != nil || res.Attack || len(res.Markings) != 1 || res.Markings[0].Label() != "get:id" {
		t.Fatalf("digit input: %+v, %v", res, err)
	}
	if !reflect.DeepEqual(buf, sqltoken.Lex(other)) {
		t.Fatalf("digit input lexed the query into the storage: %v", buf)
	}
	err = a.AnalyzeBuf(context.Background(), q, nil, &buf, []Input{{Source: "get", Name: "id", Value: "42 OR 1=1"}}, nil, &res)
	if err != nil || !res.Attack {
		t.Fatalf("injected input: %+v, %v", res, err)
	}
	if !reflect.DeepEqual(buf, sqltoken.Lex(q)) {
		t.Fatalf("injected input did not lex the query into the storage: %v", buf)
	}
}

// FuzzInertSkip is the skip's differential: AnalyzeBuf with the lex skip
// and with it disabled returns reflect.DeepEqual results, in every
// dialect, under both policies, with nil tokens (where the skip applies)
// and with the query's tokens handed in (where it cannot).
func FuzzInertSkip(f *testing.F) {
	f.Add("SELECT * FROM posts WHERE id=42 LIMIT 5", "42", "5", uint8(0), false)
	f.Add("SELECT * FROM posts WHERE id=42 OR 1=1", "42 OR 1=1", "1", uint8(0), false)
	f.Add("SELECT * FROM t WHERE a=12345 AND b=1234", "12346", "x", uint8(1), true)
	f.Add("SELECT * FROM t WHERE a=1.5e3", "1.5", "5e3", uint8(2), false)
	f.Add("SELECT * FROM t WHERE a=$1 AND b=0x1F", "1", "0x1F", uint8(1), true)
	f.Add("SELECT 1 -- 2\n", "1 -- 2", "2", uint8(0), false)
	f.Add("SELECT t.a FROM t", ".", "a", uint8(2), false)
	f.Fuzz(func(t *testing.T, query, in1, in2 string, dialect uint8, strict bool) {
		if len(query) > 512 || len(in1) > 128 || len(in2) > 128 {
			return
		}
		ds := sqltoken.Dialects()
		d := ds[int(dialect)%len(ds)]
		opts := []Option{WithDialect(d)}
		if strict {
			opts = append(opts, WithStrictPolicy())
		}
		skip, lex := MustNew(opts...), MustNew(opts...)
		if skip.inert == nil {
			t.Fatalf("%s: skip not enabled (strict=%v)", d, strict)
		}
		lex.inert = nil
		inputs := []Input{{Source: "get", Name: "a", Value: in1}, {Source: "post", Name: "b", Value: in2}}
		ctx := context.Background()
		for _, toks := range [][]sqltoken.Token{nil, d.Lex(query)} {
			var bufSkip, bufLex []sqltoken.Token
			var got, want core.Result
			err1 := skip.AnalyzeBuf(ctx, query, toks, &bufSkip, inputs, nil, &got)
			err2 := lex.AnalyzeBuf(ctx, query, toks, &bufLex, inputs, nil, &want)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: errors %v / %v", d, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s strict=%v query %q inputs %q %q (tokens handed: %v):\nskip %+v\nlex  %+v",
					d, strict, query, in1, in2, toks != nil, got, want)
			}
		}
	})
}
