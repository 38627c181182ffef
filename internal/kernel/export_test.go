package kernel

// plantUsageDrift skews the shard's running resident total by d frames
// without touching any policy: the drift the checked audit must report.
func (sh *shard) plantUsageDrift(d int) { sh.used += d }
