package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCmdKernelTelemetryFlags(t *testing.T) {
	if err := runCommand("kernel", []string{"-tenants", "48", "-quick", "-telemetry", "-top", "3"}); err != nil {
		t.Fatalf("kernel -telemetry -top: %v", err)
	}
}

// TestCmdKernelTripWritesIncidents drives the incident path through the
// CLI: the trip fault must fail the run (it injects violations by
// design) and leave one deterministic JSONL dump per shard.
func TestCmdKernelTripWritesIncidents(t *testing.T) {
	dir := t.TempDir()
	err := runCommand("kernel", []string{"-tenants", "48", "-quick", "-shards", "2", "-chaos", "trip", "-incident-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "invariant violations") {
		t.Fatalf("trip chaos returned %v, want an invariant-violation failure", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "incident-*.jsonl"))
	if err != nil || len(names) != 2 {
		t.Fatalf("incident dumps = %v (err %v), want one per shard", names, err)
	}
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		lines := 0
		for sc.Scan() {
			var v map[string]any
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Errorf("%s line %d not JSON: %v", name, lines+1, err)
			}
			lines++
		}
		f.Close()
		if lines < 2 {
			t.Errorf("%s has %d lines, want header + events", name, lines)
		}
	}
}

func TestCmdKernelRejectsUnknownChaos(t *testing.T) {
	if err := runCommand("kernel", []string{"-tenants", "8", "-quick", "-chaos", "sparks"}); err == nil {
		t.Fatal("unknown chaos fault accepted")
	}
}

// TestCmdKernelRejectsBadConfig: every out-of-range flag fails the
// command with an error naming the offending field, instead of running
// with a default or exhausting memory.
func TestCmdKernelRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct{ flag, value, field string }{
		{"-intensity", "7", "Intensity"},
		{"-quantum", "-5", "Quantum"},
		{"-frames", "-5", "Frames"},
		{"-overcommit", "-1", "Overcommit"},
		{"-shards", "-3", "Shards"},
		{"-level", "-2", "flag -level"}, // rejected when flags are parsed
		{"-pool", "bogus", "Pool"},
		{"-tenants", "200000000", "Tenants"},
		{"-shards", "1000000", "Shards"},
	} {
		err := runCommand("kernel", []string{"-tenants", "100", "-quick", tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.value) {
			t.Errorf("kernel %s %s: got %v, want an error naming %s and %s", tc.flag, tc.value, err, tc.field, tc.value)
		}
	}
}
