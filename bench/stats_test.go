package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, math.NaN()},
		{"single median", []float64{7}, 0.5, 7},
		{"single p90", []float64{7}, 0.9, 7},
		{"odd median", []float64{3, 1, 2}, 0.5, 2},
		{"even median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{5, 9, 1}, 0, 1},
		{"max", []float64{5, 9, 1}, 1, 9},
		{"ties", []float64{2, 2, 2, 2, 9}, 0.75, 2},
		{"p90 of 1..11", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
	}
	for _, c := range cases {
		got := quantile(c.xs, c.q)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: got %v, want NaN", c.name, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 2, 4", q1, q3)
	}
	q1, q3 = quartiles([]float64{6, 6, 6})
	if q1 != 6 || q3 != 6 {
		t.Fatalf("quartiles of ties = %v, %v; want 6, 6", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50},
		{1, 50},
		{39, 50},
		{40, 75},
		{99, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
