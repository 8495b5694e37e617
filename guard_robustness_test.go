package joza_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"joza"
)

func robustGuard(t *testing.T) *joza.Guard {
	t.Helper()
	g, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(`<?php
$q = "SELECT * FROM records WHERE ID=$id LIMIT 5";
$q2 = "SELECT name, email FROM people WHERE name='";
$q2b = "'";`)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGuardNeverPanics drives the full hybrid over arbitrary query and
// input strings; a defense must survive adversarial garbage.
func TestGuardNeverPanics(t *testing.T) {
	g := robustGuard(t)
	f := func(query, a, b string) bool {
		_ = check(g, query, []joza.Input{
			{Source: "get", Name: "a", Value: a},
			{Source: "post", Name: "b", Value: b},
		})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestGuardConcurrent exercises one Guard from many goroutines (run under
// -race in CI): the analyzers, caches and MRU must be safe to share.
func TestGuardConcurrent(t *testing.T) {
	g := robustGuard(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id := rng.Intn(100)
				q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", id)
				v := check(g, q, []joza.Input{{Source: "get", Name: "id", Value: fmt.Sprint(id)}})
				if v.Attack {
					errs <- fmt.Errorf("benign flagged: %s", q)
					return
				}
				payload := fmt.Sprintf("%d OR 1=1", id)
				atk := "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5"
				v = check(g, atk, []joza.Input{{Source: "get", Name: "id", Value: payload}})
				if !v.Attack {
					errs <- fmt.Errorf("attack missed: %s", atk)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestGuardAttackSurvivesCacheWarmth interleaves benign and attack
// variants of the same query shape: warm caches must never certify an
// attack.
func TestGuardAttackSurvivesCacheWarmth(t *testing.T) {
	g := robustGuard(t)
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
		if check(g, q, nil).Attack {
			t.Fatalf("benign flagged: %s", q)
		}
		atk := fmt.Sprintf("SELECT * FROM records WHERE ID=%d OR 1=1 LIMIT 5", i)
		if !check(g, atk, nil).Attack {
			t.Fatalf("attack certified by warm cache: %s", atk)
		}
	}
}

// TestGuardQuotedContext covers the quoted injection point end to end.
func TestGuardQuotedContext(t *testing.T) {
	g := robustGuard(t)
	benign := "SELECT name, email FROM people WHERE name='alice'"
	if v := check(g, benign, []joza.Input{{Source: "get", Name: "n", Value: "alice"}}); v.Attack {
		t.Errorf("benign quoted query flagged: %v", v.Reasons())
	}
	payload := "x' UNION SELECT name, email FROM people -- "
	atk := "SELECT name, email FROM people WHERE name='" + payload + "'"
	if v := check(g, atk, []joza.Input{{Source: "get", Name: "n", Value: payload}}); !v.Attack {
		t.Error("quoted-context injection missed")
	}
}
