package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a server's /metrics page: series (name with its
// label set, as printed) to value.
type scrape map[string]float64

// parseMetrics reads the Prometheus text format as fpserver writes it.
// Lines it cannot read are skipped: the page is a source of optional
// per-layer numbers, never a reason to fail a run.
func parseMetrics(r io.Reader) scrape {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// scrapeMetrics fetches /metrics on its own connection, outside any timed
// op. A failed scrape is an empty one: every series reads as missing.
func scrapeMetrics(ctx context.Context, base string) scrape {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return scrape{}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return scrape{}
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// delta is how much a series grew between two scrapes, or missing when
// either scrape lacks it.
func delta(before, after scrape, series string) float64 {
	a, okA := after[series]
	b, okB := before[series]
	if !okA || !okB {
		return missing
	}
	return a - b
}

// gauge is a series' value in one scrape, or missing.
func gauge(s scrape, series string) float64 {
	if v, ok := s[series]; ok {
		return v
	}
	return missing
}
