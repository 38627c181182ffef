package sweep_test

import (
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// FuzzSweep feeds arbitrary byte strings as reference traces plus a
// fuzzer-chosen τ/capacity and checks the one-pass curve engines against
// per-cell replay, and the LRU stack pass against its Fenwick oracle.
// Any divergence is a real bug in one of the engines.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0, 3, 3, 2, 1, 0}, uint8(3))
	f.Add([]byte{5, 5, 5, 5}, uint8(1))
	f.Add([]byte{0}, uint8(200))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(7))
	f.Fuzz(func(t *testing.T, refs []byte, knob uint8) {
		if len(refs) == 0 || len(refs) > 4096 {
			return
		}
		tr := trace.New("fuzz")
		for _, b := range refs {
			tr.AddRef(mem.Page(b % 64))
		}

		checkLRUOracle(t, "fuzz", tr)
		lru, err := sweep.NewLRU(tr)
		if err != nil {
			t.Fatal(err)
		}
		m := int(knob)%lru.V + 1
		cell := vmsim.Run(tr.RefsOnly(), policy.NewLRU(m))
		if got := lru.Result(m); got != cell {
			t.Fatalf("LRU m=%d: curve %+v != cell %+v", m, got, cell)
		}

		ws, err := sweep.NewWS(tr)
		if err != nil {
			t.Fatal(err)
		}
		tau := int(knob) + 1
		curve, err := ws.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		wsCell := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if curve != wsCell {
			t.Fatalf("WS tau=%d: curve %+v != cell %+v", tau, curve, wsCell)
		}
		if got := ws.Faults(tau); got != wsCell.Faults {
			t.Fatalf("WS tau=%d: histogram faults %d != cell %d", tau, got, wsCell.Faults)
		}
		// One Curve on a fresh index across the closed-form threshold T:
		// below, at and above it, and past the end of the trace.
		fresh, err := sweep.NewWS(tr)
		if err != nil {
			t.Fatal(err)
		}
		tail := fresh.Tail()
		taus := []int{tail - 1, tail, tail + 1 + int(knob), tr.Refs + 1}
		rs, err := fresh.Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			if cell := vmsim.Run(tr.RefsOnly(), policy.NewWS(max(tau, 1))); rs[i] != cell {
				t.Fatalf("WS tau=%d (T=%d): curve %+v != cell %+v", tau, tail, rs[i], cell)
			}
		}

		// One multi-window Curve on the input, and on the input repeated
		// past one block of the grid pass, with windows on both sides of
		// the scan's live mask.
		k := int(knob)
		grid := []int{1, 2, k%7 + 1, k + 1, 2*k + 3, 17*k + 1, sweep.LiveBits - 1, sweep.LiveBits, sweep.LiveBits + 1, sweep.WSBlock - 1, sweep.WSBlock, sweep.WSBlock + 1}
		long := trace.New("fuzz-long")
		for long.Refs <= sweep.WSBlock {
			for _, pg := range tr.Pages() {
				long.AddRef(pg)
			}
		}
		for _, in := range []*trace.Trace{tr, long} {
			rs, err := mustWS(t, in).Curve(grid)
			if err != nil {
				t.Fatal(err)
			}
			for i, tau := range grid {
				if cell := vmsim.Run(in, policy.NewWS(tau)); rs[i] != cell {
					t.Fatalf("WS grid %v tau=%d (R=%d): curve %+v != cell %+v", grid, tau, in.Refs, rs[i], cell)
				}
			}
		}

		caps := []int{1, m}
		fifo, err := sweep.FIFOCurve(tr, caps)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range caps {
			if cell := vmsim.Run(tr, policy.NewFIFO(c)); fifo[i] != cell {
				t.Fatalf("FIFO m=%d: lockstep %+v != cell %+v", c, fifo[i], cell)
			}
		}
	})
}
