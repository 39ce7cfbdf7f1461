package jobs

import (
	"net/http"

	"iwscan/internal/timeseries"
)

// The control-plane dashboard: a single self-contained page (no
// external assets) over the same JSON/SSE endpoints API clients use —
// /healthz, /scheduler, /events and /events/watch. Styling splices in
// the repo's validated viz palette (timeseries.PaletteCSS): the
// first four tenants, in sorted-name order, wear the fixed categorical
// series colors and any further tenant folds into the neutral ink —
// hues are never cycled, and identity is carried by the legend and the
// lane table, not color alone.
func (s *Server) handleDashJobs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(jobsDashHTML))
}

const jobsDashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>iwserve control plane</title>
<style>
` + timeseries.PaletteCSS + `  h2 { font-size: 13px; margin: 0 0 8px; color: var(--text-secondary);
       text-transform: uppercase; letter-spacing: .04em; }
  .sub { color: var(--text-secondary); font-size: 12.5px; margin: 0 0 12px; }
  .card { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 12px 14px; margin-bottom: 14px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 14px; }
  .tile { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 10px 16px; min-width: 96px; }
  .tile .v { font-size: 22px; font-variant-numeric: tabular-nums; }
  .tile .k { font-size: 11.5px; color: var(--text-muted); }
  .legend { display: flex; flex-wrap: wrap; gap: 14px; align-items: center;
            font-size: 12.5px; color: var(--text-secondary); margin-bottom: 8px; }
  .chip { display: inline-block; width: 10px; height: 10px; border-radius: 3px;
          margin-right: 5px; vertical-align: -1px; }
  table { border-collapse: collapse; font-size: 12.5px; width: 100%; }
  th, td { text-align: right; padding: 4px 10px;
           font-variant-numeric: tabular-nums; border-bottom: 1px solid var(--grid); }
  th { color: var(--text-muted); font-weight: 500; }
  th:first-child, td:first-child { text-align: left; }
  .lane { height: 10px; border-radius: 4px; min-width: 2px; }
  .lanecell { width: 40%; }
  .lanewrap { background: none; position: relative; }
  .gantt { width: 100%; height: auto; display: block; }
  .feed { list-style: none; margin: 0; padding: 0; font-size: 12.5px;
          max-height: 320px; overflow-y: auto; }
  .feed li { padding: 3px 0; border-bottom: 1px solid var(--grid);
             font-variant-numeric: tabular-nums; }
  .feed .seq { color: var(--text-muted); margin-right: 8px; }
  .feed .typ { color: var(--text-secondary); margin-right: 8px; }
  .muted { color: var(--text-muted); }
</style>
</head>
<body class="viz-root">
<h1>iwserve control plane</h1>
<p class="sub" id="sub">journal &mdash; connecting&hellip;</p>

<div class="tiles" id="tiles"></div>

<div class="card">
  <h2>Per-tenant virtual-time lanes</h2>
  <div class="legend" id="legend"></div>
  <table id="tenants"><thead>
    <tr><th>tenant</th><th>weight</th><th>share</th><th>vtime</th>
        <th class="lanecell">vtime lane</th><th>charged</th><th>contended</th></tr>
  </thead><tbody></tbody></table>
</div>

<div class="card">
  <h2>Segment Gantt (wall clock)</h2>
  <svg id="gantt" class="gantt" viewBox="0 0 900 10" preserveAspectRatio="none"></svg>
  <div class="sub muted" id="ganttsub">waiting for segment events&hellip;</div>
</div>

<div class="card">
  <h2>Recent events</h2>
  <ul class="feed" id="feed"></ul>
</div>

<script>
"use strict";
var SERIES = ["--series-1","--series-2","--series-3","--series-4"];
var tenantColor = {};          // tenant -> css var (fixed at first sight, never cycled)
var tenantOrder = [];
var segments = {};             // span -> {job, tenant, t0, t1}
var feed = [];
var lastSeq = 0;

function colorFor(tenant) {
  if (!(tenant in tenantColor)) {
    tenantOrder.push(tenant);
    tenantOrder.sort();
    // Re-derive: first four tenants in sorted order get the fixed hues;
    // the rest wear the neutral ink. Color follows the entity.
    tenantColor = {};
    for (var i = 0; i < tenantOrder.length; i++) {
      tenantColor[tenantOrder[i]] = i < SERIES.length ? SERIES[i] : "--merged";
    }
    renderLegend();
  }
  return "var(" + tenantColor[tenant] + ")";
}
function renderLegend() {
  var el = document.getElementById("legend");
  el.innerHTML = "";
  tenantOrder.forEach(function (t) {
    var s = document.createElement("span");
    s.innerHTML = '<span class="chip" style="background:var(' + tenantColor[t] + ')"></span>' + t;
    el.appendChild(s);
  });
}
function tile(k, v) {
  return '<div class="tile"><div class="v">' + v + '</div><div class="k">' + k + "</div></div>";
}
function refreshTiles() {
  fetch("healthz").then(function (r) { return r.json(); }).then(function (h) {
    var jobs = h.jobs || {};
    var t = "";
    t += tile("queued", jobs.queued || 0);
    t += tile("running", jobs.running || 0);
    t += tile("paused", jobs.paused || 0);
    t += tile("completed", jobs.completed || 0);
    t += tile("failed / cancelled", (jobs.failed || 0) + (jobs.cancelled || 0));
    t += tile("journal seq", h.journal_seq);
    t += tile("watchers", h.watchers);
    document.getElementById("tiles").innerHTML = t;
    document.getElementById("sub").textContent =
      "status " + h.status + " · uptime " + (h.uptime_ns / 1e9).toFixed(0) + "s · " +
      h.tenants + " tenants · " + h.charged_probes + " probes charged";
  }).catch(function () {});
}
function refreshTenants() {
  fetch("scheduler").then(function (r) { return r.json(); }).then(function (st) {
    var rows = st.tenants || [];
    var max = 1;
    rows.forEach(function (t) { if (t.vtime > max) max = t.vtime; });
    var tb = document.querySelector("#tenants tbody");
    tb.innerHTML = "";
    rows.forEach(function (t) {
      var tr = document.createElement("tr");
      var w = Math.max(2, 100 * t.vtime / max);
      tr.innerHTML = "<td><span class='chip' style='background:" + colorFor(t.name) +
        "'></span>" + t.name + "</td><td>" + t.weight + "</td><td>" +
        (100 * t.share).toFixed(0) + "%</td><td>" + t.vtime.toFixed(0) + "</td>" +
        "<td class='lanecell lanewrap'><div class='lane' style='width:" + w +
        "%;background:" + colorFor(t.name) + "'></div></td>" +
        "<td>" + t.charged_probes + "</td><td>" + t.contended_probes + "</td>";
      tb.appendChild(tr);
    });
  }).catch(function () {});
}
function renderGantt() {
  var spans = Object.keys(segments);
  if (!spans.length) return;
  var jobs = {}, t0 = Infinity, t1 = -Infinity;
  spans.forEach(function (k) {
    var s = segments[k];
    (jobs[s.job] = jobs[s.job] || []).push(s);
    if (s.t0 < t0) t0 = s.t0;
    var end = s.t1 || Date.now() * 1e6;
    if (end > t1) t1 = end;
  });
  var ids = Object.keys(jobs).sort();
  var rowH = 16, W = 900, H = ids.length * rowH + 4;
  var svg = document.getElementById("gantt");
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  svg.style.height = H + "px";
  var x = function (ns) { return 120 + (W - 130) * (ns - t0) / Math.max(1, t1 - t0); };
  var out = "";
  ids.forEach(function (id, row) {
    var y = row * rowH + 3;
    out += '<text x="0" y="' + (y + 9) + '" font-size="10"' +
      ' fill="var(--text-secondary)" font-family="system-ui">' + id + "</text>";
    jobs[id].forEach(function (s) {
      var end = s.t1 || Date.now() * 1e6;
      var wpx = Math.max(2, x(end) - x(s.t0));
      out += '<rect x="' + x(s.t0) + '" y="' + y + '" width="' + wpx +
        '" height="10" rx="3" fill="' + colorFor(s.tenant) + '">' +
        "<title>" + id + " slice (" + ((end - s.t0) / 1e6).toFixed(0) + " ms)</title></rect>";
    });
  });
  svg.innerHTML = out;
  document.getElementById("ganttsub").textContent =
    ids.length + " jobs · window " + ((t1 - t0) / 1e9).toFixed(1) + "s";
}
function feedLine(ev) {
  var extra = "";
  if (ev.type === "state_change" && ev.fields) {
    extra = ev.fields.from + " → " + ev.fields.to;
  } else if (ev.type === "dispatch" && ev.fields) {
    extra = "chose " + ev.fields.chosen + " (" + (ev.fields.candidates || []).length + " candidates)";
  } else if (ev.fields && ev.fields.reason) {
    extra = ev.fields.reason;
  }
  return '<li><span class="seq">#' + ev.seq + '</span><span class="typ">' + ev.type +
    "</span>" + (ev.job ? ev.job + " " : "") +
    (ev.tenant ? '<span class="muted">' + ev.tenant + "</span> " : "") + extra + "</li>";
}
function ingest(ev) {
  if (ev.seq <= lastSeq) return;
  lastSeq = ev.seq;
  if (ev.type === "segment_start") {
    segments[ev.span] = { job: ev.job, tenant: ev.tenant, t0: ev.wall_ns, t1: 0 };
  } else if (ev.type === "segment_end" && segments[ev.span]) {
    segments[ev.span].t1 = ev.wall_ns;
  }
  if (ev.tenant) colorFor(ev.tenant);
  feed.unshift(feedLine(ev));
  if (feed.length > 40) feed.pop();
}
function backfill(from) {
  fetch("events?from=" + from + "&limit=1000").then(function (r) { return r.json(); })
    .then(function (page) {
      page.events.forEach(ingest);
      if (page.next <= page.high_water) { backfill(page.next); return; }
      document.getElementById("feed").innerHTML = feed.join("");
      renderGantt();
      var es = new EventSource("events/watch?from=" + (lastSeq + 1));
      es.onmessage = function () {};
      ["daemon_start","server_shutdown","job_submitted","state_change","request","recovery",
       "dispatch","vtime_charge","vtime_settle","tenant_wake",
       "segment_start","segment_end","shard_start","shard_end","checkpoint_write"
      ].forEach(function (t) {
        es.addEventListener(t, function (msg) { ingest(JSON.parse(msg.data)); });
      });
    }).catch(function () {
      document.getElementById("sub").textContent = "journal not armed (503 from /events)";
    });
}
setInterval(refreshTiles, 2000);
setInterval(refreshTenants, 2000);
setInterval(function () {
  document.getElementById("feed").innerHTML = feed.join("");
  renderGantt();
}, 1000);
refreshTiles();
refreshTenants();
backfill(1);
</script>
</body>
</html>
`
