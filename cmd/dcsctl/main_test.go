package main

import "testing"

// TestParseRejectsUnmodelledOp checks the argument check that runs
// before any cluster is built: every configuration sends, and every
// one but the integrated device receives; sizes run from 1 byte to the
// GPU VRAM less two pages, and at least one operation runs.
func TestParseRejectsUnmodelledOp(t *testing.T) {
	const size, n = 256 << 10, 1
	for _, tc := range []struct {
		config, op string
		size, n    int
		ok         bool
	}{
		{"dcs-ctrl", "send", size, n, true},
		{"dcs-ctrl", "recv", size, n, true},
		{"sw-p2p", "recv", size, n, true},
		{"dev-integration", "send", size, n, true},
		{"dev-integration", "recv", size, n, false},
		{"dcs-ctrl", "copy", size, n, false},
		{"no-such-config", "send", size, n, false},
		{"sw-opt", "send", 1, n, true},
		{"sw-opt", "send", 67100672, n, true},
		{"sw-opt", "send", 67100672 + 4096, n, false},
		{"sw-opt", "send", 0, n, false},
		{"dcs-ctrl", "send", -1, n, false},
		{"dcs-ctrl", "send", size, 0, false},
		{"dcs-ctrl", "recv", size, -3, false},
	} {
		_, _, err := parse(tc.config, tc.op, "md5", tc.size, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("-config %s -op %s -size %d -n %d: error %v, want accepted=%v", tc.config, tc.op, tc.size, tc.n, err, tc.ok)
		}
	}
}
