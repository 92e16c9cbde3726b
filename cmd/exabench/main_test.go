package main

import "testing"

// TestDiffReportsGate pins the regression gate: more than 10% growth in
// ns/op or allocs/op fails, any growth from zero allocs/op fails, and rows
// present on one side only never gate.
func TestDiffReportsGate(t *testing.T) {
	row := func(name string, ns float64, allocs int64) benchResult {
		return benchResult{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
	}
	for _, tc := range []struct {
		name      string
		base, cur []benchResult
		fail      bool
	}{
		{"allocs +11%", []benchResult{row("a", 100, 100)}, []benchResult{row("a", 100, 111)}, true},
		{"ns/op +11%", []benchResult{row("a", 100, 100)}, []benchResult{row("a", 111, 100)}, true},
		{"-50% both", []benchResult{row("a", 100, 100)}, []benchResult{row("a", 50, 50)}, false},
		{"+10% both", []benchResult{row("a", 100, 100)}, []benchResult{row("a", 110, 110)}, false},
		{"allocs 0 -> 1", []benchResult{row("a", 100, 0)}, []benchResult{row("a", 100, 1)}, true},
		{"allocs 0 -> 0", []benchResult{row("a", 100, 0)}, []benchResult{row("a", 100, 0)}, false},
		{"only in baseline", []benchResult{row("a", 100, 0), row("b", 1, 1)}, []benchResult{row("a", 100, 0)}, false},
		{"only in current", []benchResult{row("a", 100, 0)}, []benchResult{row("a", 100, 0), row("b", 1e9, 1e9)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := diffReports(&benchReport{Results: tc.base}, benchReport{Results: tc.cur})
			if (err != nil) != tc.fail {
				t.Errorf("diffReports error = %v, want failure %v", err, tc.fail)
			}
		})
	}
}
