package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// counters is a /metrics scrape summed over every node of a workload:
// unlabelled sample name → value.
type counters map[string]float64

// scrape reads /metrics from each node and sums the unlabelled samples.
func scrape(w workload) (counters, error) {
	out := make(counters)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, n := range w.nodes() {
		resp, err := hc.Get(n.url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.url, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				out[name] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.url, err)
		}
	}
	return out, nil
}

// delta returns after − c for counters; gauges (names not ending in
// _total) keep their value from after.
func (c counters) delta(after counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		if strings.HasSuffix(k, "_total") {
			out[k] = v - c[k]
		} else {
			out[k] = v
		}
	}
	return out
}

// per returns num/den, or 0 when den is 0.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
