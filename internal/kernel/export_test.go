package kernel

import (
	"sync"

	"cdmm/internal/policy"
)

// plantUsageDrift skews the shard's running resident total by d frames
// without touching any policy: the drift the checked audit must report.
func (sh *shard) plantUsageDrift(d int) { sh.used += d }

// PolicyCounts is one shard's policy accounting over a run: the
// policies it built, the WS fallbacks those built, and the peak number
// of tenants holding a policy at once (admitted and not yet finished,
// killed and requeued ones included). A CD policy builds its fallback
// at its first degradation and reuses it at every later one, so the
// fallbacks built are the distinct policies some finished tenant
// returned degraded.
type PolicyCounts struct {
	Built, Fallbacks, PeakHeld int
}

// RecordPolicies counts every shard's policy handouts and returns from
// now until stop is called; counts returns them by shard index. Shards
// may run concurrently.
func RecordPolicies() (counts func() map[int]PolicyCounts, stop func()) {
	type shardLog struct {
		built, held, peak int
		degraded          map[*policy.CD]bool
	}
	var mu sync.Mutex
	logs := map[int]*shardLog{}
	policyHook = func(sh *shard, t *tenant, ev policyEvent) {
		mu.Lock()
		defer mu.Unlock()
		l := logs[sh.idx]
		if l == nil {
			l = &shardLog{degraded: map[*policy.CD]bool{}}
			logs[sh.idx] = l
		}
		switch ev {
		case policyBuilt:
			l.built++
			fallthrough
		case policyReused:
			l.held++
			l.peak = max(l.peak, l.held)
		case policyReturned:
			l.held--
			if t.degraded {
				l.degraded[t.cd] = true
			}
		}
	}
	counts = func() map[int]PolicyCounts {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int]PolicyCounts, len(logs))
		for idx, l := range logs {
			out[idx] = PolicyCounts{Built: l.built, Fallbacks: len(l.degraded), PeakHeld: l.peak}
		}
		return out
	}
	return counts, func() { policyHook = nil }
}
