package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// goldenSeed is the seed the committed results/*.csv and the stored
// lenet-fast reference were made with. Only runs at this seed compare
// against them; other seeds check invariants that hold for any seed.
const goldenSeed = 2020

// referenceDir holds the fast-budget lenet-fast rows that no golden
// covers, relative to the repository root.
const referenceDir = "perfbench/reference/lenet-fast"

// readCSV loads one committed CSV.
func readCSV(path string) (table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return table{}, err
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return table{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return table{}, fmt.Errorf("%s: empty", path)
	}
	return table{header: recs[0], rows: recs[1:]}, nil
}

// writeCSV stores a table in the same form cmd/benchtables writes.
func writeCSV(path string, t table) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(t.header); err != nil {
		return err
	}
	if err := w.WriteAll(t.rows); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// column returns the index of a named column, or -1.
func (t table) column(name string) int { return slices.Index(t.header, name) }

// key joins a row's key cells.
func (t table) key(row []string, keys []string) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		if c := t.column(k); c >= 0 && c < len(row) {
			parts[i] = row[c]
		}
	}
	return strings.Join(parts, ",")
}

// compareGolden checks every row of got against the golden row with the
// same key, cell by cell over got's columns except skip. It returns one
// line per mismatch.
func compareGolden(name string, got, gold table, keys, skip []string) []string {
	var bad []string
	index := make(map[string][]string, len(gold.rows))
	for _, r := range gold.rows {
		index[gold.key(r, keys)] = r
	}
	for _, r := range got.rows {
		k := got.key(r, keys)
		g, ok := index[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: row %s has no golden row", name, k))
			continue
		}
		for i, col := range got.header {
			if slices.Contains(skip, col) {
				continue
			}
			gi := gold.column(col)
			if gi < 0 {
				bad = append(bad, fmt.Sprintf("%s: golden has no column %q", name, col))
				continue
			}
			if r[i] != g[gi] {
				bad = append(bad, fmt.Sprintf("%s: row %s column %s: got %s, golden %s", name, k, col, r[i], g[gi]))
			}
		}
	}
	return bad
}

// compareReference requires got to equal the stored reference exactly.
func compareReference(name string, got, ref table, keys []string) []string {
	var bad []string
	if !slices.Equal(got.header, ref.header) {
		return []string{fmt.Sprintf("%s: header %v, reference %v", name, got.header, ref.header)}
	}
	for _, line := range rowDiff(ref, got, keys) {
		bad = append(bad, name+": "+line)
	}
	return bad
}

// rowDiff lists, per key, the rows old and new disagree on: "-" for a
// row only in old, "+" for one only in new, "~" with the changed cells.
// Rows that moved position without changing also count as a difference,
// since the experiments promise a fixed row order.
func rowDiff(old, new table, keys []string) []string {
	var out []string
	oldRows := map[string][]string{}
	var oldKeys, newKeys []string
	for _, r := range old.rows {
		k := old.key(r, keys)
		oldRows[k] = r
		oldKeys = append(oldKeys, k)
	}
	newRows := map[string][]string{}
	for _, r := range new.rows {
		k := new.key(r, keys)
		newRows[k] = r
		newKeys = append(newKeys, k)
		o, ok := oldRows[k]
		switch {
		case !ok:
			out = append(out, "+ "+strings.Join(r, ","))
		case !slices.Equal(o, r):
			var cells []string
			for i := range r {
				if i >= len(o) || o[i] != r[i] {
					was := ""
					if i < len(o) {
						was = o[i]
					}
					cells = append(cells, fmt.Sprintf("%s %s -> %s", new.header[i], was, r[i]))
				}
			}
			out = append(out, fmt.Sprintf("~ %s: %s", k, strings.Join(cells, "; ")))
		}
	}
	for _, k := range oldKeys {
		if _, ok := newRows[k]; !ok {
			out = append(out, "- "+strings.Join(oldRows[k], ","))
		}
	}
	if len(out) == 0 && !slices.Equal(oldKeys, newKeys) {
		out = append(out, fmt.Sprintf("row order %v, was %v", newKeys, oldKeys))
	}
	return out
}

// checkShape is the any-seed check of an experiment table: at least one
// row, unique keys and finite numbers.
func checkShape(name string, got table, keys []string) []string {
	var bad []string
	if len(got.rows) == 0 {
		bad = append(bad, name+": no rows")
	}
	seen := map[string]bool{}
	for _, r := range got.rows {
		k := got.key(r, keys)
		if seen[k] {
			bad = append(bad, fmt.Sprintf("%s: duplicate row %s", name, k))
		}
		seen[k] = true
		for i, cell := range r {
			if v, err := strconv.ParseFloat(cell, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				bad = append(bad, fmt.Sprintf("%s: row %s column %s is %s", name, k, got.header[i], cell))
			}
		}
	}
	return bad
}

// sources holds the committed tables a run compares against, read once
// at set-up from the repository root.
type sources struct {
	golden    map[string]table // results/<name>.csv
	reference map[string]table // perfbench/reference/lenet-fast/<name>.csv
}

func loadSources(root string, golden, reference []string) (*sources, error) {
	s := &sources{golden: map[string]table{}, reference: map[string]table{}}
	for _, n := range golden {
		t, err := readCSV(filepath.Join(root, "results", n+".csv"))
		if err != nil {
			return nil, err
		}
		s.golden[n] = t
	}
	for _, n := range reference {
		t, err := readCSV(filepath.Join(root, referenceDir, n+".csv"))
		if err != nil {
			return nil, err
		}
		s.reference[n] = t
	}
	return s, nil
}
