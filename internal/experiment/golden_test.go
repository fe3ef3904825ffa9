package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

// goldenQuick is `gradebench -quick -format json` at seed 1. It changes only
// when a change means to move the paper's numbers, and then only by
// re-running that command:
//
//	go run ./cmd/gradebench -quick -format json > internal/experiment/testdata/quick-seed1.json
const goldenQuick = "testdata/quick-seed1.json"

// TestQuickTablesGolden pins every seed-deterministic experiment table byte
// for byte, so a speed-up or refactor that moves any reported number fails
// here rather than in a hand-run diff.
func TestQuickTablesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenQuick)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := All(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Encode exactly as gradebench -format json does.
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	var golden []Table
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatalf("output differs from %s, which does not decode: %v", goldenQuick, err)
	}
	t.Fatalf("output differs from %s: %s", goldenQuick, firstTableDiff(golden, tables))
}

// firstTableDiff names the first table, and within it the first row, where
// got departs from want.
func firstTableDiff(want, got []Table) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		w, g := want[i], got[i]
		switch {
		case w.ID != g.ID:
			return fmt.Sprintf("table %d is %s, want %s", i, g.ID, w.ID)
		case w.Title != g.Title || w.Note != g.Note:
			return fmt.Sprintf("table %s: title or note differs", w.ID)
		case !slices.Equal(w.Header, g.Header):
			return fmt.Sprintf("table %s: header %q, want %q", w.ID, g.Header, w.Header)
		}
		for r := 0; r < len(w.Rows) && r < len(g.Rows); r++ {
			if !slices.Equal(w.Rows[r], g.Rows[r]) {
				return fmt.Sprintf("table %s row %d: %q, want %q", w.ID, r, g.Rows[r], w.Rows[r])
			}
		}
		if len(w.Rows) != len(g.Rows) {
			return fmt.Sprintf("table %s: %d rows, want %d", w.ID, len(g.Rows), len(w.Rows))
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d tables, want %d", len(got), len(want))
	}
	return "tables are equal; the encoding differs"
}
