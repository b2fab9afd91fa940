package export

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Dashboard is the live ops view for the analysis daemon: one HTML page
// that renders the latest state snapshot — queue depth and history,
// per-stage latency sparklines, recent jobs, persistence health — and an
// SSE stream that replaces it on every publish. Every snapshot is published
// under one broker key, so a snapshot obsoletes its predecessor: a late
// subscriber gets the current snapshot and then the live stream, and a page
// that cannot keep up skips to the latest.
type Dashboard struct {
	broker *broker
}

// dashKey is the broker key, and the SSE event name, of every snapshot.
const dashKey = "snapshot"

// NewDashboard returns an empty dashboard; Publish installs the first
// snapshot.
func NewDashboard() *Dashboard {
	return &Dashboard{broker: newBroker()}
}

// Publish installs v (marshaled to JSON) as the current snapshot and
// pushes it to every connected page.
func (d *Dashboard) Publish(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	d.broker.publish(dashKey, frame{event: dashKey, data: data})
}

// Close ends every stream on the shutdown event. Connected pages show
// "daemon drained" instead of silently going stale.
func (d *Dashboard) Close() { d.broker.close() }

// Handler returns the dashboard's routing table; mount it under a prefix
// (the daemon uses /dash/) — the page uses relative URLs throughout.
func (d *Dashboard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, dashboardPage)
	})
	mux.HandleFunc("/snapshot.json", d.handleSnapshot)
	mux.Handle("/events", d.broker)
	return mux
}

// handleSnapshot serves the current snapshot for curl and for pages whose
// SSE connection has not delivered yet.
func (d *Dashboard) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	f, ok := d.broker.frameOf(dashKey)
	if !ok {
		http.Error(w, "no snapshot yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(f.data)
}

// dashboardPage renders whatever snapshot JSON arrives; it hard-codes only
// the field names of the daemon's dashSnapshot document.
const dashboardPage = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>phasefoldd ops</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.2rem 2rem; background: #16181d; color: #d8dce3; }
  h1 { font-size: 1.1rem; margin: 0 0 .8rem; }
  h1 .st { font-weight: normal; color: #8a93a3; margin-left: .8rem; }
  .cards { display: flex; flex-wrap: wrap; gap: .8rem; margin-bottom: 1rem; }
  .card { background: #1e2128; border: 1px solid #2b2f38; border-radius: 6px; padding: .6rem .9rem; min-width: 8.5rem; }
  .card .k { color: #8a93a3; font-size: .72rem; text-transform: uppercase; letter-spacing: .04em; }
  .card .v { font-size: 1.25rem; margin-top: .1rem; }
  .card.bad .v { color: #ff7b72; }
  .card.warn .v { color: #e3b341; }
  .card.ok .v { color: #7ee787; }
  table { border-collapse: collapse; width: 100%; margin-bottom: 1.2rem; }
  th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #2b2f38; }
  th { color: #8a93a3; font-weight: normal; font-size: .75rem; text-transform: uppercase; letter-spacing: .04em; }
  td.num { font-variant-numeric: tabular-nums; }
  svg.spark { vertical-align: middle; }
  svg.spark polyline { fill: none; stroke: #58a6ff; stroke-width: 1.2; }
  tr.slow td { color: #e3b341; }
  .mono { font-family: ui-monospace, monospace; font-size: .85em; }
  #conn { float: right; color: #8a93a3; }
  #conn.down { color: #ff7b72; }
  a { color: #58a6ff; text-decoration: none; }
</style>
</head>
<body>
<h1>phasefoldd <span class="st" id="meta"></span> <span id="conn">connecting…</span></h1>
<div class="cards" id="cards"></div>
<h2 style="font-size:.95rem">Stage latency</h2>
<table id="stages"><thead><tr><th>stage</th><th>p50</th><th>p95</th><th>recent</th></tr></thead><tbody></tbody></table>
<h2 style="font-size:.95rem">Recent jobs</h2>
<table id="jobs"><thead><tr><th>trace</th><th>tenant</th><th>state</th><th>cache</th><th>bytes</th><th>duration</th></tr></thead><tbody></tbody></table>
<script>
"use strict";
function fmtDur(s) {
  if (s < 0.001) return (s * 1e6).toFixed(0) + "µs";
  if (s < 1) return (s * 1e3).toFixed(1) + "ms";
  if (s < 120) return s.toFixed(2) + "s";
  return (s / 60).toFixed(1) + "m";
}
function fmtBytes(n) {
  if (!n) return "";
  const u = ["B", "KiB", "MiB", "GiB"];
  let i = 0;
  while (n >= 1024 && i < u.length - 1) { n /= 1024; i++; }
  return n.toFixed(i ? 1 : 0) + u[i];
}
function spark(vals, w, h) {
  if (!vals || vals.length < 2) return "";
  const max = Math.max(...vals, 1e-9);
  const pts = vals.map((v, i) =>
    (i * w / (vals.length - 1)).toFixed(1) + "," + (h - 2 - v / max * (h - 4)).toFixed(1));
  return '<svg class="spark" width="' + w + '" height="' + h +
    '"><polyline points="' + pts.join(" ") + '"/></svg>';
}
function card(k, v, cls) {
  return '<div class="card ' + (cls || "") + '"><div class="k">' + k +
    '</div><div class="v">' + v + "</div></div>";
}
function esc(s) {
  return String(s == null ? "" : s).replace(/[&<>"]/g,
    c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
}
function render(s) {
  document.getElementById("meta").textContent =
    s.version + " · up " + fmtDur(s.uptime_seconds) + (s.draining ? " · DRAINING" : "");
  let cards = "";
  cards += card("queue", s.queue_depth + " / " + s.queue_cap + " " +
    spark(s.queue_history, 72, 22), s.queue_depth >= s.queue_cap ? "bad" : "");
  cards += card("workers", s.workers);
  cards += card("persistence", esc(s.persistence),
    s.persistence === "ok" ? "ok" : s.persistence === "disabled" ? "" : "bad");
  cards += card("stored", s.persist_entries + " · " + (fmtBytes(s.persist_bytes) || "0B"));
  cards += card("journal pending", s.journal_pending, s.journal_pending > 0 ? "warn" : "");
  cards += card("e2e p50 / p95", fmtDur(s.e2e_p50) + " / " + fmtDur(s.e2e_p95));
  let done = 0;
  for (const k in (s.outcomes || {})) done += s.outcomes[k];
  cards += card("jobs done", done + (s.outcomes && s.outcomes.error ?
    " (" + s.outcomes.error + " err)" : ""), s.outcomes && s.outcomes.error ? "warn" : "");
  if (s.otlp && s.otlp.enabled) {
    const o = s.otlp;
    cards += card("otlp export", o.exported + " sent · " + o.dropped + " dropped" +
      (o.queue_len ? " · q " + o.queue_len + "/" + o.queue_cap : ""),
      o.last_error ? "bad" : o.dropped > 0 ? "warn" : "ok");
  }
  document.getElementById("cards").innerHTML = cards;

  document.querySelector("#stages tbody").innerHTML = (s.stages || []).map(st =>
    "<tr><td>" + esc(st.name) + '</td><td class="num">' + fmtDur(st.p50) +
    '</td><td class="num">' + fmtDur(st.p95) + "</td><td>" +
    spark(st.recent, 160, 22) + "</td></tr>").join("");

  document.querySelector("#jobs tbody").innerHTML = (s.jobs || []).map(j =>
    '<tr class="' + (j.slow ? "slow" : "") + '"><td class="mono"><a href="../v1/jobs/' +
    encodeURIComponent(j.id) + '">' + esc(j.id) + "</a>" +
    (j.recovered ? " ♻" : "") + "</td><td>" + esc(j.tenant) + "</td><td>" +
    esc(j.state) + "</td><td>" + esc(j.cache || "") + '</td><td class="num">' +
    fmtBytes(j.bytes) + '</td><td class="num">' + fmtDur(j.duration_sec) +
    "</td></tr>").join("");
}
const conn = document.getElementById("conn");
const es = new EventSource("events");
es.addEventListener("snapshot", e => {
  conn.textContent = "live";
  conn.className = "";
  render(JSON.parse(e.data));
});
es.addEventListener("shutdown", () => {
  conn.textContent = "daemon drained";
  conn.className = "down";
  es.close();
});
es.onerror = () => { conn.textContent = "disconnected"; conn.className = "down"; };
</script>
</body>
</html>
`
