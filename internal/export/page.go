package export

import "html/template"

// pageTmpl is the embedded report page: pure stdlib html/template plus a
// few inline lines of JS for table sorting and the SSE progress feed. No
// external assets, so the report works offline and inside firewalled CI.
// All dynamic content is precomputed into pageData by the server; the
// template only lays it out.
var pageTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>phasefold report{{if .View}} — {{.View.App}}{{end}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 1.5rem; color: #1a1a1a; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: .5rem 0 1.2rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
th { background: #f2f2f2; cursor: pointer; user-select: none; }
tr:nth-child(even) td { background: #fafafa; }
.tl { margin: .8rem 0 1.4rem; }
.tlrow { display: flex; align-items: center; margin: 2px 0; }
.tlrank { width: 5.5rem; font-family: monospace; font-size: 12px; }
.tlstrip { position: relative; flex: 1; height: 18px; background: #eee; }
.tlseg { position: absolute; top: 0; height: 100%; }
.badge { display: inline-block; padding: 0 .4rem; border-radius: 3px; background: #eee; font-family: monospace; }
.ok { background: #d4edd4; } .degraded { background: #fff3cd; } .rejected, .failed, .timeout, .quarantined { background: #f8d7da; }
.running { background: #cfe2ff; } .canceled { background: #e2e3e5; }
code { background: #f4f4f4; padding: 0 .25rem; }
</style>
</head>
<body>
<h1>phasefold report</h1>
{{if .View}}
<p><b>{{.View.App}}</b> — {{.View.Ranks}} ranks, {{.View.NumBursts}} bursts, {{.View.NumClusters}} clusters
({{.View.NoiseBursts}} noise), SPMD score {{printf "%.3f" .View.SPMD}},
total computation {{.View.TotalComputation}}.</p>

<h2>Cluster timeline</h2>
<div class="tl">
{{range .Timeline}}<div class="tlrow"><span class="tlrank">rank {{.Rank}}</span><span class="tlstrip">
{{range .Segs}}<span class="tlseg" style="left:{{.Left}}%;width:{{.Width}}%;background:{{.Color}}" title="{{.Title}}"></span>{{end}}
</span></div>{{end}}
<div class="tlrow"><span class="tlrank"></span><span>0 … {{.View.End}}</span></div>
</div>

<h2>Clusters</h2>
<table class="sortable">
<thead><tr><th>cluster</th><th>region</th><th>bursts</th><th>median dur</th><th>total time</th><th>mean IPC</th><th>phases</th><th>quality</th></tr></thead>
<tbody>
{{range .View.Clusters}}<tr><td>{{.Label}}</td><td>{{.Region}}</td><td>{{.Size}}</td><td>{{.MedianDur}}</td><td>{{.TotalTime}}</td><td>{{printf "%.3f" .MeanIPC}}</td><td>{{len .Phases}}</td><td><span class="badge {{.Quality}}">{{.Quality}}</span>{{if .QualityReason}} {{.QualityReason}}{{end}}</td></tr>
{{end}}</tbody>
</table>

{{range .ClusterSections}}
<h3>cluster {{.Label}} phases (rep. duration {{.Rep}})</h3>
<table class="sortable">
<thead><tr><th>phase</th><th>x0</th><th>x1</th><th>duration</th>{{range $.MetricNames}}<th>{{.}}</th>{{end}}<th>source</th><th>share</th></tr></thead>
<tbody>
{{range .Rows}}<tr><td>{{.Index}}</td><td>{{.X0}}</td><td>{{.X1}}</td><td>{{.Duration}}</td>{{range .Cells}}<td>{{.}}</td>{{end}}<td>{{if .Source}}<code>{{.Source}}</code>{{else}}–{{end}}</td><td>{{.Share}}</td></tr>
{{end}}</tbody>
</table>
{{end}}

{{if .View.Diagnostics}}
<h2>Diagnostics ({{len .View.Diagnostics}} absorbed faults)</h2>
<table class="sortable">
<thead><tr><th>severity</th><th>stage</th><th>message</th></tr></thead>
<tbody>{{range .View.Diagnostics}}<tr><td>{{.Severity}}</td><td>{{.Stage}}</td><td>{{.Message}}</td></tr>{{end}}</tbody>
</table>
{{end}}
{{else}}
<p><i>No analysis available yet.</i></p>
{{end}}

<h2>Artifacts</h2>
<ul>
<li><a href="artifacts/trace.json">trace.json</a> — Perfetto / Chrome trace-event timeline (open in <code>ui.perfetto.dev</code>)</li>
<li><a href="artifacts/flame.folded">flame.folded</a> — folded stacks for flamegraph.pl / speedscope{{range .Weights}}{{if .}} · <a href="artifacts/flame.folded?weight={{.}}">{{.}}</a>{{end}}{{end}}</li>
<li><a href="artifacts/phases.prom">phases.prom</a> — OpenMetrics per-phase snapshot</li>
<li><a href="artifacts/phases.json">phases.json</a> — JSON per-phase snapshot</li>
</ul>

{{if .HasJobs}}
<h2>Batch progress</h2>
<p><span id="jobdone">{{len .Finished}}</span>/{{.JobsTotal}} jobs finished.</p>
<table id="jobs">
<thead><tr><th>#</th><th>job</th><th>outcome</th><th>attempts</th><th>time</th><th>detail</th></tr></thead>
<tbody>
{{range .Jobs}}<tr id="job-{{.Index}}"><td>{{.Index}}</td><td>{{.Name}}</td><td><span class="badge {{.Outcome}}">{{.Outcome}}</span></td><td>{{.Attempts}}</td><td>{{.Duration}}</td><td>{{.Detail}}</td></tr>
{{end}}</tbody>
</table>
<script>
(function () {
  // The count is the number of job indices seen finished, server-rendered
  // or streamed: the feed replays each job's latest event on connect, so
  // counting events would count those jobs twice.
  var finished = {};
  {{.Finished}}.forEach(function (i) { finished[i] = true; });
  var es = new EventSource("events");
  var upd = function (e) {
    var j = JSON.parse(e.data);
    var row = document.getElementById("job-" + j.index);
    if (!row) {
      row = document.createElement("tr");
      row.id = "job-" + j.index;
      document.querySelector("#jobs tbody").appendChild(row);
    }
    row.innerHTML = "<td>" + j.index + "</td><td>" + j.name +
      "</td><td><span class='badge " + j.outcome + "'>" + j.outcome +
      "</span></td><td>" + (j.attempts || "") + "</td><td>" + (j.duration || "") +
      "</td><td>" + (j.detail || "") + "</td>";
    if (e.type === "job") {
      finished[j.index] = true;
      document.getElementById("jobdone").textContent = Object.keys(finished).length;
    }
  };
  es.addEventListener("job", upd);
  es.addEventListener("job-start", upd);
})();
</script>
{{end}}

<script>
document.querySelectorAll("table.sortable th").forEach(function (th) {
  th.addEventListener("click", function () {
    var table = th.closest("table"), tbody = table.querySelector("tbody");
    var idx = Array.prototype.indexOf.call(th.parentNode.children, th);
    var dir = th.dataset.dir === "asc" ? -1 : 1;
    th.dataset.dir = dir === 1 ? "asc" : "desc";
    Array.prototype.slice.call(tbody.rows).sort(function (a, b) {
      var x = a.cells[idx].textContent, y = b.cells[idx].textContent;
      var nx = parseFloat(x), ny = parseFloat(y);
      if (!isNaN(nx) && !isNaN(ny)) return dir * (nx - ny);
      return dir * x.localeCompare(y);
    }).forEach(function (r) { tbody.appendChild(r); });
  });
});
</script>
</body>
</html>
`))
