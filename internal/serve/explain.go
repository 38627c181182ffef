// The explain plane: /explain serves the fault-attribution ledgers
// published by attributed runs, and the scrape gains per-site series.
// Both are gated on the store actually holding ledgers — a server whose
// runs never attribute serves byte-identical scrapes to a pre-attribution
// server and pays nothing.
package serve

import (
	"bytes"
	"fmt"
	"net/http"

	"cdmm/internal/attr"
	"cdmm/internal/obs"
	"cdmm/internal/trace"
)

// Explain returns the attribution store backing /explain (never nil
// after New). Publish ledgers into it with Put; the endpoint and the
// per-site scrape series appear as soon as the first ledger lands.
func (s *Server) Explain() *attr.Store { return s.explain }

// explainSummary is one run's row in the /explain listing.
type explainSummary struct {
	Run     string `json:"run"`
	Program string `json:"program"`
	Policy  string `json:"policy"`
	Refs    int    `json:"refs"`
	Faults  int    `json:"pf"`
	Sites   int    `json:"sites"`
	Hotspot string `json:"hotspot,omitempty"`
	HotPF   int    `json:"hotspotPF,omitempty"`
}

// handleExplain serves the attribution ledgers: the bare path lists a
// summary per published run; ?run=<key> returns that run's full ledger
// with its sites ranked by fault count.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	store := s.explain
	if key := r.URL.Query().Get("run"); key != "" {
		led := store.Get(key)
		if led == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no ledger for run " + key})
			return
		}
		ranked := led.Rank()
		rankedIDs := make([]int32, len(ranked))
		for i, st := range ranked {
			rankedIDs[i] = st.ID
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"run":    key,
			"ledger": led,
			"ranked": rankedIDs,
		})
		return
	}
	keys := store.SortedKeys()
	out := make([]explainSummary, 0, len(keys))
	for _, k := range keys {
		led := store.Get(k)
		if led == nil {
			continue
		}
		sum := explainSummary{
			Run:     k,
			Program: led.Program,
			Policy:  led.Policy,
			Refs:    led.Refs,
			Faults:  led.Faults,
			Sites:   len(led.Sites),
		}
		if hs := led.Hotspot(); hs != nil {
			sum.Hotspot = hs.Name()
			sum.HotPF = hs.Faults
		}
		out = append(out, sum)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

// writeExplainMetrics appends per-site attribution series to a scrape:
// faults, references and evictions per (run, site), plus the directive
// effectiveness counters where nonzero. Site identity is carried in
// nest/expr labels (escaped — loop labels can contain quotes and
// backslashes once real-FORTRAN ingestion lands). An empty store writes
// nothing, keeping unattributed scrapes byte-identical.
func (s *Server) writeExplainMetrics(buf *bytes.Buffer) {
	store := s.explain
	if store.Len() == 0 {
		return
	}
	type series struct {
		name, help string
		value      func(*attr.SiteStats) int64
	}
	all := []series{
		{"attr_site_faults", "page faults attributed to the source site", func(st *attr.SiteStats) int64 { return int64(st.Faults) }},
		{"attr_site_refs", "page references executed at the source site", func(st *attr.SiteStats) int64 { return st.Refs }},
		{"attr_site_evictions", "pages evicted while the source site was executing", func(st *attr.SiteStats) int64 { return int64(st.Evictions) }},
		{"attr_site_locked_hits", "reference hits on pages held under the site's LOCK", func(st *attr.SiteStats) int64 { return st.LockedHits }},
		{"attr_site_shrink_faults", "refaults on pages the site's ALLOCATE shrink evicted", func(st *attr.SiteStats) int64 { return int64(st.ShrinkFaults) }},
		{"attr_site_release_faults", "refaults on pages force-released from the site's locks", func(st *attr.SiteStats) int64 { return int64(st.ReleaseFaults) }},
	}
	keys := store.SortedKeys()
	for _, sr := range all {
		fmt.Fprintf(buf, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n", ns, sr.name, sr.help, ns, sr.name)
		for _, k := range keys {
			led := store.Get(k)
			if led == nil {
				continue
			}
			for i := range led.Stats {
				st := &led.Stats[i]
				v := sr.value(st)
				if v == 0 {
					continue
				}
				nest := st.Site.Nest
				if st.ID == trace.NoSite {
					nest = "<unattributed>"
				}
				fmt.Fprintf(buf, "%s_%s{run=\"%s\",policy=\"%s\",site=\"%d\",nest=\"%s\",expr=\"%s\"} %d\n",
					ns, sr.name, obs.EscapeLabelValue(k), obs.EscapeLabelValue(led.Policy),
					st.ID, obs.EscapeLabelValue(nest), obs.EscapeLabelValue(st.Site.Expr), v)
			}
		}
	}
}
