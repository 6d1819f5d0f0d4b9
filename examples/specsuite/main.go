// Specsuite: runs the full benchmark suite under every technique at a
// configurable budget and prints the paper's headline comparison plus the
// per-benchmark IPC-loss figure — a smaller, programmatic version of
// `sdiq -experiment all`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/exp"
)

func main() {
	budget := flag.Int64("budget", 150_000, "committed instructions per run")
	flag.Parse()

	fmt.Printf("running 11 benchmarks x 5 techniques at %d instructions each...\n\n", *budget)
	rs, err := (&campaign.Engine{}).Run(context.Background(), campaign.DefaultSpec(*budget))
	if err != nil {
		log.Fatal(err)
	}
	s, err := exp.FromCampaign(rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(exp.Figure6(s))
	fmt.Println(exp.Figure8(s))
	fmt.Println(exp.Summary(s))
}
