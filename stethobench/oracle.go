package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// floatTolerance is the relative difference two float cells may show
// and still match: partitioned and morsel plans re-associate float sums
// (partial sums per slice, then a combining sum), so the last bits may
// differ from the sequential plan's left-to-right sum. Everything else
// (counts, integers, strings, dates, min/max) must match byte for byte.
const floatTolerance = 1e-9

// reference is the expected result of one statement, computed by a
// partitions 1 / workers 1 execution.
type reference struct {
	text  string   // the table as Result.WriteTable renders it
	lines []string // the same table split into lines (wire results)
	rows  int
}

func newReference(text string, rows int) *reference {
	return &reference{text: text, lines: tableLines(text), rows: rows}
}

// tableLines splits a rendered table into its lines.
func tableLines(text string) []string {
	return strings.Split(strings.TrimSuffix(text, "\n"), "\n")
}

// checkText compares a rendered result table against the reference.
func (r *reference) checkText(got string) error {
	if got == r.text {
		return nil
	}
	return r.checkLines(tableLines(got))
}

// checkLines compares result lines (header first) against the
// reference, cell by cell.
func (r *reference) checkLines(got []string) error {
	if len(got) != len(r.lines) {
		return fmt.Errorf("result has %d lines, want %d", len(got), len(r.lines))
	}
	for i, want := range r.lines {
		if got[i] == want {
			continue
		}
		if err := sameCells(want, got[i]); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
	}
	return nil
}

// sameCells compares two tab-separated lines: equal cells, or float
// cells within floatTolerance.
func sameCells(want, got string) error {
	w, g := strings.Split(want, "\t"), strings.Split(got, "\t")
	if len(w) != len(g) {
		return fmt.Errorf("%d cells, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] && !closeFloats(w[i], g[i]) {
			return fmt.Errorf("cell %d is %q, want %q", i, g[i], w[i])
		}
	}
	return nil
}

// closeFloats reports whether a and b parse as floats within
// floatTolerance of each other, relative to the larger of |a| and 1.
func closeFloats(a, b string) bool {
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), 1)
}
