package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"github.com/tea-graph/tea/internal/trace"
)

// buildVersion resolves the binary's module version for the tea_build_info
// metric; module-unaware builds (go test, go run from a work tree) report
// "devel".
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "devel"
}

// errNoTracing answers the trace endpoints of a process without a tracer.
var errNoTracing = errors.New("tracing disabled; start teaserve with -trace-fraction > 0 or -flight-spans > 0")

// handleTrace serves sampled traces. Without ?id= it lists the retained
// trace IDs; with one it renders that trace as a span tree (default), a
// Chrome trace_event document for chrome://tracing / Perfetto
// (?format=chrome), or JSON lines (?format=jsonl). The trace ID is the
// request's X-Request-ID, so a client that kept its response header can pull
// the matching trace directly.
func (sh *shell) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if !sh.cfg.Trace.Enabled() {
		writeErr(w, http.StatusNotFound, errNoTracing)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusOK, map[string]any{"traces": sh.cfg.Trace.TraceIDs()})
		return
	}
	spans, dropped, ok := sh.cfg.Trace.Trace(id)
	if !ok {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("no sampled trace %q: head sampling may have skipped it (raise -trace-fraction) or it was evicted", id))
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "tree":
		writeJSON(w, http.StatusOK, map[string]any{
			"trace_id":      id,
			"span_count":    len(spans),
			"dropped_spans": dropped,
			"spans":         trace.BuildTree(spans),
		})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", "tea-trace-"+id+".json"))
		w.WriteHeader(http.StatusOK)
		_ = trace.WriteChromeTrace(w, spans)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = trace.WriteJSONLines(w, spans)
	default:
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want tree, chrome, or jsonl)", format))
	}
}

// handleFlight dumps the always-on flight recorder: the last N completed
// spans plus recent error/cancel/retry events, available even when head
// sampling retained nothing.
func (sh *shell) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if !sh.cfg.Trace.Enabled() {
		writeErr(w, http.StatusNotFound, errNoTracing)
		return
	}
	events := sh.cfg.Trace.Flight()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(events), "events": events})
}
