package main

import "testing"

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	tests := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.5, 1},  // ceil(1)-1: the old int(p·(n-1)) also gave 1
		{[]float64{1, 2}, 0.51, 2}, // ...but int(0.51·1) = 0 picked the lower sample
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 0.99, 4}, // int(0.99·3) = 2 under-reported the tail
		{hundred, 0.50, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 0.07, 7}, // 0.07·100 rounds past 7 in floating point
		{hundred, 1, 100},
		{hundred, 0.001, 1},
	}
	for _, tc := range tests {
		if got := nearestRank(tc.xs, tc.p); got != tc.want {
			t.Errorf("nearestRank(n=%d, p=%v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
}
