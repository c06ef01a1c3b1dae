package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// readRecords loads the untraced records of an --out file, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareSets reports, per workload and end-to-end metric, each set's median
// and spread, and how much worse set b's median is than set a's as a share
// of a's. A metric worse by more than its bound is a breach; one whose
// spread in either set exceeds the bound is unresolved. It returns false on
// any breach.
func compareSets(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-18s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median_a", "iqr_a", "median_b", "iqr_b", "worse", "bound", "status")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s missing runs (a=%d, b=%d)\n", wl.Name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			if m.Bound == nil {
				return false, fmt.Errorf("metric %s has no bound", m.Name)
			}
			medA, iqrA := spread(values(ra, m.Name))
			medB, iqrB := spread(values(rb, m.Name))
			worse := 0.0
			if medA != 0 {
				worse = (medB - medA) / medA
				if m.Better == "higher" {
					worse = -worse
				}
			}
			status := "ok"
			switch {
			case worse > *m.Bound:
				status = "WORSE"
				ok = false
			case iqrA > *m.Bound || iqrB > *m.Bound:
				status = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-18s %12.4f %7.3f %12.4f %7.3f %+8.3f %6.2f  %s\n",
				wl.Name, m.Name, medA, iqrA, medB, iqrB, worse, *m.Bound, status)
		}
	}
	return ok, nil
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread returns the median and the distance between the first and third
// quartiles as a share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func spread(xs []float64) (med, iqr float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 2 || med == 0 {
		return med, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return med, (q(3) - q(1)) / med
}
