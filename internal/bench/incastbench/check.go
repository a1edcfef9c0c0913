package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// checkOutputs digests the CSVs a pass wrote into dir and counts the rows
// that fail the structural check against want (file name -> data rows):
// rows of a missing file, rows short of or beyond the expected count, and
// rows holding a cell that parses as a number but is not finite. The
// digest is a SHA-256 over every CSV's name and bytes, in name order.
func checkOutputs(dir string, want map[string]int) (digest string, failed int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(paths)
	h := sha256.New()
	got := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		name := filepath.Base(p)
		got[name] = b
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(b))
		h.Write(b)
	}
	for name, rows := range want {
		b, ok := got[name]
		if !ok {
			failed += rows
			continue
		}
		failed += min(rows, badRows(b, rows))
	}
	return hex.EncodeToString(h.Sum(nil)), failed, nil
}

// badRows counts the rows of one CSV that fail the structural check when
// want data rows are expected. An unparsable file fails every row.
func badRows(b []byte, want int) int {
	r := csv.NewReader(bytes.NewReader(b))
	recs, err := r.ReadAll()
	if err != nil || len(recs) == 0 {
		return want
	}
	data := recs[1:]
	bad := len(data) - want
	if bad < 0 {
		bad = -bad
	}
	for _, rec := range data {
		for _, cell := range rec {
			if f, err := strconv.ParseFloat(cell, 64); err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
				bad++
				break
			}
		}
	}
	return bad
}

// sameFiles reports the files under golden that dir does not reproduce
// byte for byte.
func sameFiles(golden, dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(golden, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden CSVs under %s", golden)
	}
	var differ []string
	for _, p := range paths {
		want, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(p)))
		if err != nil || !bytes.Equal(got, want) {
			differ = append(differ, filepath.Base(p))
		}
	}
	return differ, nil
}
