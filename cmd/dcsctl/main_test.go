package main

import "testing"

// TestParseRejectsUnmodelledOp checks the argument check that runs
// before any cluster is built: every configuration sends, and every
// one but the integrated device receives.
func TestParseRejectsUnmodelledOp(t *testing.T) {
	for _, tc := range []struct {
		config, op string
		ok         bool
	}{
		{"dcs-ctrl", "send", true},
		{"dcs-ctrl", "recv", true},
		{"sw-p2p", "recv", true},
		{"dev-integration", "send", true},
		{"dev-integration", "recv", false},
		{"dcs-ctrl", "copy", false},
		{"no-such-config", "send", false},
	} {
		_, _, err := parse(tc.config, tc.op, "md5")
		if (err == nil) != tc.ok {
			t.Errorf("-config %s -op %s: error %v, want accepted=%v", tc.config, tc.op, err, tc.ok)
		}
	}
}
