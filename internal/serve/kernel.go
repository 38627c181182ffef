// The kernel plane: /kernel serves the multiprogrammed kernel's live
// telemetry view (histograms with quantile brackets, incident counts),
// and the scrape gains the cdmm_kernel_* series. Both are gated on the
// store having seen a run — a server whose kernels never publish serves
// byte-identical scrapes to a pre-kernel server and pays nothing.
package serve

import (
	"bytes"
	"fmt"
	"net/http"

	"cdmm/internal/kernel"
	"cdmm/internal/obs"
)

// Kernel returns the telemetry store backing /kernel (never nil after
// New). Pass it as kernel.Config.Publish; the endpoint and the
// cdmm_kernel_* scrape series appear as soon as a run begins.
func (s *Server) Kernel() *kernel.TelemetryStore { return s.kernel }

// handleKernel serves the current kernel telemetry view: shard partials
// merged live mid-run, the final merged snapshot after the run.
func (s *Server) handleKernel(w http.ResponseWriter, r *http.Request) {
	v := s.kernel.Snapshot()
	if v == nil {
		writeJSON(w, http.StatusOK, map[string]any{"active": false})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// kernelHistHelp documents each exported kernel histogram. All values
// are virtual ticks except occupancy (frames) and reclaim_yield
// (frames per pressure wave).
var kernelHistHelp = map[string]string{
	"fault_latency":    "virtual fault-service latency per quantum (ticks)",
	"admit_wait":       "admission-queue wait per admitted tenant (ticks)",
	"suspend_duration": "suspension duration per resume (ticks)",
	"reclaim_yield":    "frames recovered per pressure wave",
	"occupancy":        "resident frames of the stepped tenant per quantum",
}

// writeKernelMetrics appends the kernel telemetry series to a scrape:
// the run's state and incident count, and one Prometheus histogram
// (_bucket/_sum/_count on exact log2 bounds) per kernel distribution.
// An empty store writes nothing, keeping kernel-less scrapes
// byte-identical.
func (s *Server) writeKernelMetrics(buf *bytes.Buffer) {
	if s.kernel.Len() == 0 {
		return
	}
	v := s.kernel.Snapshot()
	if v == nil || v.Telemetry == nil {
		return
	}
	final := 0
	if v.Final {
		final = 1
	}
	fmt.Fprintf(buf, "# HELP %s_kernel_run_final whether the published kernel run has completed\n# TYPE %s_kernel_run_final gauge\n%s_kernel_run_final{run=%q} %d\n",
		ns, ns, ns, obs.EscapeLabelValue(v.Run), final)
	fmt.Fprintf(buf, "# HELP %s_kernel_incidents flight-recorder incidents captured\n# TYPE %s_kernel_incidents gauge\n%s_kernel_incidents %d\n",
		ns, ns, ns, v.Incidents)
	for i := range v.Telemetry.Hists {
		h := &v.Telemetry.Hists[i]
		s.scrapeRaw = h.AppendProm(s.scrapeRaw[:0], ns+"_kernel_"+h.Name, kernelHistHelp[h.Name])
		buf.Write(s.scrapeRaw)
	}
}
