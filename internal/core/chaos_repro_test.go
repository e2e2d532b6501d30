package core_test

import (
	"testing"

	"frfc/internal/experiment"
)

// TestChaosDiscardCreditPastWindow replays the chaos run
//
//	frsim -config FR6 -radix 4 -load 0.3 -sample 400 -warmup 800 -chaos 0.4 -retry 8 -check
//
// which once panicked with "credit release cycle 2534 beyond window end
// 2534": a control flit discarded under chaos returned a credit from its
// lead's announced arrival, which the 4×-slower data link put at the
// upstream window's end. It must now finish with the invariant checker
// armed and every resolved packet delivered.
func TestChaosDiscardCreditPastWindow(t *testing.T) {
	s := experiment.FR6(experiment.FastControl, 5).Scaled(400, 800)
	s.MeshRadix = 4
	s.FR.RetryLimit = 8
	s.Check = true
	s.ChaosIntensity = 0.4
	r := experiment.Run(s, 0.3)
	if r.SampledDelivered == 0 || r.DeliveredFraction != 1 {
		t.Fatalf("chaos run delivered %d sampled packets, fraction %v of resolved", r.SampledDelivered, r.DeliveredFraction)
	}
}
