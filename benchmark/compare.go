package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json the benchmark itself reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// loadRecords reads a file of -o records, one JSON object per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles and a verdict against the metric's bound in BENCHMARK.json;
// per-layer metrics have no bound and are judged at 0. It then reports
// whether runs of the same workload and seed share their output digest.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) error {
	def, err := loadBenchDef(benchPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := make(map[string]rule)
	var order []string
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range def.PerLayer {
		rules[m.Name] = rule{m.Better, 0}
		order = append(order, m.Name)
	}
	values := func(recs []record, workload, metric string) []float64 {
		var vs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "A = %s, B = %s; median [q1 q3] (runs)\n", pathA, pathB)
	for _, wl := range def.Workloads {
		for _, metric := range order {
			va, vb := values(a, wl.Name, metric), values(b, wl.Name, metric)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := rules[metric]
			v, change := verdict(va, vb, r.better, r.bound)
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-16s %-28s A %.6g [%.6g %.6g] (%d)  B %.6g [%.6g %.6g] (%d)  %+.2f%%  %s\n",
				wl.Name, metric, qa[1], qa[0], qa[2], len(va), qb[1], qb[0], qb[2], len(vb), 100*change, v)
		}
	}

	type key struct {
		workload string
		seed     int64
	}
	digests := make(map[key]map[string]bool)
	for _, r := range append(append([]record(nil), a...), b...) {
		k := key{r.Workload, r.Seed}
		if digests[k] == nil {
			digests[k] = make(map[string]bool)
		}
		digests[k][r.Digest] = true
	}
	keys := make([]key, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	for _, k := range keys {
		status := "same"
		if len(digests[k]) > 1 {
			status = "DIFFERENT"
		}
		fmt.Fprintf(w, "output_digest %-16s seed %-6d %s\n", k.workload, k.seed, status)
	}
	return nil
}

// verdict judges B against A for a metric whose better direction is
// "lower" or "higher". change is B's median relative to A's. A metric is
// better or worse outright when every run of B beats, or loses to, every
// run of A; otherwise a median worse by more than bound is worse, and a
// spread wider than bound on either side leaves the metric unresolved.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	allBetter, allWorse := maxB < minA, minB > maxA
	if sign < 0 {
		allBetter, allWorse = minB > maxA, maxB < minA
	}
	if qa[1] == 0 {
		switch {
		case qb[1] == 0:
			return "within bound", 0
		case allBetter:
			return "better", math.Inf(int(math.Copysign(1, qb[1])))
		case allWorse:
			return "worse", math.Inf(int(math.Copysign(1, qb[1])))
		}
		return "unresolved", math.NaN()
	}
	change := (qb[1] - qa[1]) / math.Abs(qa[1])
	worse := sign * change
	spread := math.Max((qa[2]-qa[0])/math.Abs(qa[1]), (qb[2]-qb[0])/math.Abs(qb[1]))
	switch {
	case allBetter:
		return "better", change
	case allWorse && worse > bound:
		return "worse", change
	case spread > bound:
		return "unresolved", change
	case worse > bound:
		return "worse", change
	}
	return "within bound", change
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first quartile, the median and the third
// quartile of xs the way Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
