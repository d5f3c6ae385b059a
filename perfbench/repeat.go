package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first quartile, median and third quartile with
// the same "exclusive" method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory (none when absent).
func benchBounds() map[string]bound {
	out := map[string]bound{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m
		}
	}
	return out
}

// child runs this binary once and parses its result line.
func child(wl string, seed int64, secs, traced int, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(traced), "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("FLAG")) || bytes.HasPrefix(l, []byte("VIOLATION")) {
			fmt.Printf("seed %d: %s\n", seed, l)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("seed %d: bad result line: %w", seed, err)
	}
	return &res, nil
}

// repeatRuns is the steadiness tool: n runs at consecutive seeds, then
// each metric's quartiles and spread (IQR over median, the figure the
// bounds are set from), and optionally a held-out seed checked against
// the medians within the BENCHMARK.json bounds.
func repeatRuns(wl string, seed int64, secs, traced, n int, holdout int64, outDir string) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		res, err := child(wl, seed+int64(i), secs, traced, outDir)
		if err != nil {
			return err
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d", seed+int64(i), res.Correct, res.Failed)
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Printf("run %d/%d seed %d:", i+1, n, seed+int64(i))
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}
	names := sortedKeys(vals)
	bounds := benchBounds()
	medians := map[string]float64{}
	summary := map[string]map[string]float64{}
	fmt.Printf("%-40s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := quartiles(vals[k])
		medians[k] = med
		spread := math.Abs(q3-q1) / math.Abs(med)
		fmt.Printf("%-40s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", k, q1, med, q3, spread, bounds[k].Bound, units[k])
		summary[k] = map[string]float64{"q1": q1, "median": med, "q3": q3, "spread": spread}
	}
	line, _ := json.Marshal(map[string]any{"workload": wl, "runs": n, "metrics": summary})
	fmt.Println(string(line))
	if holdout == 0 {
		return nil
	}
	res, err := child(wl, holdout, secs, traced, outDir)
	if err != nil {
		return err
	}
	bad := 0
	for _, k := range names {
		b, ok := bounds[k]
		v, med := res.Metrics[k].Value, medians[k]
		worse := (v - med) / math.Abs(med)
		if b.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if ok && worse > b.Bound {
			verdict = "OUT OF BOUND"
			bad++
		}
		fmt.Printf("holdout %-40s %12.4f vs median %12.4f (%+.3f) %s\n", k, v, med, worse, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("held-out seed %d: %d metrics outside their bounds", holdout, bad)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
