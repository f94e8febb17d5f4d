// Command keybench regenerates every table and figure of the KeystoneML
// paper's evaluation section on synthetic workloads. Run all experiments
// or a single one:
//
//	keybench                 # everything at quick scale
//	keybench -exp fig9       # one experiment
//	keybench -scale full     # larger sizes, sharper ratios
//
// Experiments: table1 fig6 table2 fig7 costmodel table3 table5 fig8
// table6 fig9 fig10 fig11 fig12 kernels (the reference-vs-blocked
// kernel crossover). The output is informational; the end-to-end
// measurements live in bench/e2e.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"keystoneml/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig6, table2, fig7, costmodel, table3, table5, fig8, table6, fig9, fig10, fig11, fig12, kernels)")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	flag.Parse()

	scale := experiments.Quick
	if strings.EqualFold(*scaleFlag, "full") {
		scale = experiments.Full
	}
	w := os.Stdout

	runners := []struct {
		name string
		run  func()
	}{
		{"table1", func() { experiments.Table1(w) }},
		{"fig6", func() { experiments.Figure6(w, scale) }},
		{"table2", func() { experiments.Table2(w, scale) }},
		{"fig7", func() { experiments.Figure7(w, scale) }},
		{"costmodel", func() { experiments.CostModelEval(w, scale) }},
		{"table3", func() { experiments.Table3(w, scale) }},
		{"table5", func() { experiments.Table5(w, scale) }},
		{"fig8", func() { experiments.Figure8(w, scale) }},
		{"table6", func() { experiments.Table6(w) }},
		{"fig9", func() { experiments.Figure9(w, scale) }},
		{"fig10", func() { experiments.Figure10(w, scale) }},
		{"fig11", func() { experiments.Figure11(w, scale) }},
		{"fig12", func() { experiments.Figure12(w) }},
		{"kernels", func() { experiments.Kernels(w, scale) }},
	}

	ran := false
	for _, r := range runners {
		if *exp == "all" || *exp == r.name {
			r.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
