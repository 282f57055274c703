package main

import "testing"

func TestCapacitySpecValidates(t *testing.T) {
	for _, quick := range []bool{false, true} {
		s := capacitySpec(quick)
		if err := s.Validate(); err != nil {
			t.Fatalf("capacitySpec(quick=%v) invalid: %v", quick, err)
		}
		// The sweep scales the spec; the scaled extremes must stay valid.
		for _, f := range []float64{0.5, 64} {
			if err := s.Scaled(f).Validate(); err != nil {
				t.Fatalf("capacitySpec(quick=%v).Scaled(%v) invalid: %v", quick, f, err)
			}
		}
	}
	if capacitySpec(true).TotalRate() != capacitySpec(false).TotalRate() {
		t.Fatal("quick mode must keep the same starting rate")
	}
}
