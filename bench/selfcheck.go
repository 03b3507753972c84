package main

import (
	"fmt"
	"io"
	"math"
)

// runSelfcheck runs the selected workloads twice in both modes on the same
// binary and compares: every end-to-end timing must agree within its
// bound, and every metric that is a pure function of the script (exact
// metrics and module counters) must repeat exactly. Per-layer timings
// carry no bound; their difference is printed, not judged.
func runSelfcheck(names []string, cfg runConfig, w io.Writer) error {
	failures := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			var runs [2]*runOutput
			for i := range runs {
				out, err := runWorkload(name, cfg, traced, io.Discard)
				if err != nil {
					return fmt.Errorf("bench: selfcheck: %s run %d: %w", name, i+1, err)
				}
				runs[i] = out
			}
			fmt.Fprintf(w, "== selfcheck %s trace %d seed %d\n", name, runs[0].Trace, cfg.seed)
			fmt.Fprintf(w, "  %-32s %16s %16s %10s  %s\n", "metric", "run 1", "run 2", "rel diff", "verdict")
			check := func(d metricDef, a, b float64) {
				diff := 0.0
				if a != b {
					diff = math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
				}
				verdict := "reported"
				switch {
				case d.kind == exact || d.kind == counter:
					verdict = "exact"
					if a != b {
						verdict = "FAIL: must repeat exactly"
						failures++
					}
				case d.bound > 0:
					verdict = fmt.Sprintf("within %.0f%%", 100*d.bound)
					if diff > d.bound {
						verdict = fmt.Sprintf("FAIL: bound %.0f%%", 100*d.bound)
						failures++
					}
				}
				fmt.Fprintf(w, "  %-32s %16.6g %16.6g %9.2f%%  %s\n", d.name, a, b, 100*diff, verdict)
			}
			for _, d := range runs[0].declared {
				check(d, runs[0].Metrics[d.name], runs[1].Metrics[d.name])
			}
			for _, d := range perLayer {
				if a, ok := runs[0].Extra[d.name]; ok {
					check(d, a, runs[1].Extra[d.name])
				}
			}
			if runs[0].Attempted != runs[1].Attempted || runs[0].Failed != runs[1].Failed {
				fmt.Fprintf(w, "  FAIL: attempted/failed %d/%d vs %d/%d\n", runs[0].Attempted, runs[0].Failed, runs[1].Attempted, runs[1].Failed)
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("bench: selfcheck: %d metrics disagree between two runs of the same code", failures)
	}
	fmt.Fprintln(w, "selfcheck passed: two runs of the same code agree within the benchmark's own bounds")
	return nil
}
