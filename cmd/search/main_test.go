package main

import (
	"strings"
	"testing"
)

// TestDefaultSpaceTable pins the default-space comparison: brute force's
// optimum and every strategy's evaluations, score and share of it. The rows
// do not depend on the worker count; only the header line names it.
func TestDefaultSpaceTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-space", "default"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 3)
	if want := "shape 12544x576x128 on amd-r9-nano, space default (640 configurations), "; !strings.HasPrefix(lines[0], want) {
		t.Errorf("header %q, want prefix %q", lines[0], want)
	}
	const table = `strategy            evals    best GF/s   % of opt best config
brute-force           640         3263     100.0% t2x4a8_wg8x32
random                306         3199      98.1% t2x4a8_wg8x16
hill-climb            155         3189      97.7% t2x4a8_wg16x16
basin-hopping         226         3263     100.0% t2x4a8_wg8x32
genetic               219         3263     100.0% t2x4a8_wg8x32
`
	if len(lines) < 3 || lines[2] != table {
		t.Fatalf("table:\n%s\nwant:\n%s", out.String(), table)
	}
}
