// Command libtest runs the RQ2 differential tests over the nine TLS
// library models and prints Tables 4 and 5.
//
// Usage:
//
//	libtest [-table 4|5] [-seed 11]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/difftest"
	"repro/internal/report"
)

func main() {
	table := flag.Int("table", 0, "print one table (4 or 5); 0 = both")
	seed := flag.Int64("seed", 11, "harness seed")
	flag.Parse()

	h, err := difftest.NewHarness(*seed)
	if err != nil {
		fatal(err)
	}
	t4, err := h.Table4()
	if err != nil {
		fatal(err)
	}
	t5, err := h.Table5()
	if err != nil {
		fatal(err)
	}
	if *table == 0 || *table == 4 {
		fmt.Println(report.Table4(t4))
	}
	if *table == 0 || *table == 5 {
		fmt.Println(report.Table5(t5))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "libtest: %v\n", err)
	os.Exit(1)
}
