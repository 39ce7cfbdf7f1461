package timeseries

// DashboardHTML returns the self-contained HTML sparkline dashboard
// served at /dash. The page fetches /timeseries from the same debug
// server and renders one SVG sparkline per metric with a 2px line per
// shard (fixed categorical color order, validated for light and dark
// surfaces) plus the merged series in neutral ink, a shared legend, a
// crosshair tooltip per chart, the anomaly log, the merge wait table
// and a per-shard totals table. It has no external dependencies — no
// fonts, scripts or styles are fetched beyond /timeseries itself.
func DashboardHTML() string { return dashHTML }

// PaletteCSS is the validated viz palette both dashboards share — this
// one and the jobs control plane's: light and dark .viz-root custom
// properties (fixed categorical series colors, a neutral ink for merged
// series, status colors), the page body and its h1. Pages splice it into
// their <style>.
const PaletteCSS = `  .viz-root {
    color-scheme: light;
    --surface-1:    #fcfcfb;
    --page:         #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary:#52514e;
    --text-muted:   #898781;
    --grid:         #e1e0d9;
    --baseline:     #c3c2b7;
    --border:       rgba(11,11,11,0.10);
    --series-1:     #2a78d6;
    --series-2:     #eb6834;
    --series-3:     #1baf7a;
    --series-4:     #eda100;
    --merged:       #52514e;  /* neutral ink, not a series hue */
    --status-warning:  #fab219;
    --status-serious:  #ec835a;
    --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1:    #1a1a19;
      --page:         #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary:#c3c2b7;
      --text-muted:   #898781;
      --grid:         #2c2c2a;
      --baseline:     #383835;
      --border:       rgba(255,255,255,0.10);
      --series-1:     #3987e5;
      --series-2:     #d95926;
      --series-3:     #199e70;
      --series-4:     #c98500;
      --merged:       #c3c2b7;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --surface-1:    #1a1a19;
    --page:         #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary:#c3c2b7;
    --text-muted:   #898781;
    --grid:         #2c2c2a;
    --baseline:     #383835;
    --border:       rgba(255,255,255,0.10);
    --series-1:     #3987e5;
    --series-2:     #d95926;
    --series-3:     #199e70;
    --series-4:     #c98500;
    --merged:       #c3c2b7;
  }
  body.viz-root {
    margin: 0; padding: 16px 20px 40px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 17px; margin: 0 0 2px; }
`

const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>iwscan telemetry</title>
<style>
` + PaletteCSS + `  .sub { color: var(--text-secondary); font-size: 12.5px; margin: 0 0 12px; }
  .legend { display: flex; flex-wrap: wrap; gap: 14px; align-items: center;
            margin: 0 0 14px; font-size: 12.5px; color: var(--text-secondary); }
  .legend .chip { display: inline-block; width: 14px; height: 3px;
                  border-radius: 2px; vertical-align: middle; margin-right: 5px; }
  .grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
          gap: 12px; }
  .card { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 6px; padding: 10px 12px 8px; position: relative; }
  .card h2 { font-size: 12.5px; font-weight: 600; margin: 0 0 2px;
             color: var(--text-primary); }
  .card .latest { font-size: 12px; color: var(--text-secondary);
                  font-variant-numeric: tabular-nums; min-height: 1.4em; }
  .card svg { display: block; width: 100%; height: 72px; }
  .card .spark path.line { fill: none; stroke-width: 2; stroke-linejoin: round;
                           stroke-linecap: round; }
  .card .spark line.base { stroke: var(--baseline); stroke-width: 1; }
  .card .spark line.xh { stroke: var(--text-muted); stroke-width: 1;
                         stroke-dasharray: 2 3; }
  .card .minmax { font-size: 10.5px; fill: var(--text-muted); }
  .tip { position: absolute; pointer-events: none; background: var(--surface-1);
         border: 1px solid var(--border); border-radius: 4px;
         box-shadow: 0 2px 8px rgba(0,0,0,0.12); padding: 5px 8px;
         font-size: 11.5px; color: var(--text-primary); display: none;
         white-space: nowrap; z-index: 5; font-variant-numeric: tabular-nums; }
  .tip .t { color: var(--text-secondary); }
  section { margin-top: 22px; }
  section h2 { font-size: 14px; margin: 0 0 8px; }
  table { border-collapse: collapse; font-size: 12.5px; background: var(--surface-1);
          border: 1px solid var(--border); border-radius: 6px; }
  th, td { padding: 5px 12px; text-align: right;
           font-variant-numeric: tabular-nums; border-bottom: 1px solid var(--grid); }
  th { color: var(--text-secondary); font-weight: 600; }
  th:first-child, td:first-child { text-align: left; }
  tr:last-child td { border-bottom: none; }
  .anom { list-style: none; margin: 0; padding: 0; font-size: 12.5px; }
  .anom li { padding: 4px 0; border-bottom: 1px solid var(--grid);
             display: flex; gap: 8px; align-items: baseline; }
  .anom li:last-child { border-bottom: none; }
  .anom .badge { font-weight: 600; font-size: 11px; padding: 1px 7px;
                 border-radius: 9px; border: 1.5px solid; white-space: nowrap; }
  .anom .when { color: var(--text-muted); font-variant-numeric: tabular-nums; }
  .empty { color: var(--text-muted); font-size: 12.5px; }
  .note { color: var(--text-muted); font-size: 11.5px; margin-top: 6px; }
</style>
</head>
<body class="viz-root">
<h1>iwscan telemetry</h1>
<p class="sub" id="sub">loading /timeseries&hellip;</p>
<div class="legend" id="legend"></div>
<div class="grid" id="charts"></div>
<section id="anomsec">
  <h2>Anomalies</h2>
  <ul class="anom" id="anoms"><li class="empty">none yet</li></ul>
</section>
<section id="mergesec" style="display:none">
  <h2>Output merge waits</h2>
  <div id="merge"></div>
  <p class="note">BlockedNS is wall time the k-way merge spent waiting on that
  shard while other shards' records sat buffered — the straggler owns the
  output stream's pace.</p>
</section>
<section>
  <h2>Per-shard totals</h2>
  <div id="totals"><span class="empty">no samples yet</span></div>
</section>
<script>
"use strict";
// Fixed categorical order: shards 0-3 get slots 1-4 (validated palette,
// never cycled); any shard past the fourth folds into the totals table
// only. The merged series wears neutral ink, never a series hue.
var SHARD_VARS = ["--series-1","--series-2","--series-3","--series-4"];
var MERGED_VAR = "--merged";
var MAX_LINES = 4;

// Metric catalog: how to pull one number out of a Sample.
function counter(name){ return function(s){ return (s.counters||{})[name]||0; }; }
function gauge(name){ return function(s){ return (s.gauges||{})[name]||0; }; }
function drops(s){
  var c = s.counters||{};
  return (c["netsim.packets_lost"]||0)+(c["netsim.packets_filtered"]||0)+
         (c["netsim.packets_mtu_drop"]||0)+(c["netsim.packets_queue_drop"]||0)+
         (c["netsim.packets_noroute"]||0);
}
var METRICS = [
  {key:"launched",   title:"Probes launched / interval",  get:counter("engine.launched")},
  {key:"completed",  title:"Probes completed / interval", get:counter("engine.completed")},
  {key:"wall",       title:"Wall ms / interval",          get:function(s){ return s.wall_ns/1e6; }, fmt:fmt1},
  {key:"inflight",   title:"Probes in flight",            get:gauge("engine.in_flight")},
  {key:"retries",    title:"Retries / interval",          get:counter("engine.retries")},
  {key:"dropped",    title:"Packets dropped / interval",  get:drops},
  {key:"reordered",  title:"Packets reordered / interval",get:counter("netsim.packets_reordered")},
  {key:"queue",      title:"Event queue depth",           get:gauge("netsim.event_queue")},
  {key:"frontier",   title:"Frontier lag (launch-complete)", get:gauge("engine.frontier_lag")},
  {key:"sink",       title:"Sink queue depth",            get:gauge("sink.queue_depth")},
  {key:"heap",       title:"Heap alloc MB",               get:function(s){ return ((s.gauges||{})["runtime.heap_alloc"]||0)/1048576; }, fmt:fmt1},
  {key:"gcpause",    title:"GC pause ms / interval",      get:function(s){ return ((s.counters||{})["runtime.gc_pause_ns"]||0)/1e6; }, fmt:fmt1},
  {key:"poolmiss",   title:"Pool misses (new allocs) / interval", get:counter("netsim.pool_miss")},
];
function fmt1(v){ return (Math.round(v*10)/10).toLocaleString(); }
function fmt0(v){ return Math.round(v).toLocaleString(); }

var chartsEl = document.getElementById("charts");
var charts = {}; // key -> {card, svg, tip, latest, series:[{label,cssVar,vals}]}

function ensureChart(m){
  if (charts[m.key]) return charts[m.key];
  var card = document.createElement("div");
  card.className = "card";
  card.innerHTML = '<h2></h2><div class="latest"></div>' +
    '<svg class="spark" viewBox="0 0 300 72" preserveAspectRatio="none"></svg>' +
    '<div class="tip"></div>';
  card.querySelector("h2").textContent = m.title;
  chartsEl.appendChild(card);
  var c = {card:card, svg:card.querySelector("svg"),
           tip:card.querySelector(".tip"), latest:card.querySelector(".latest"),
           series:[], metric:m};
  attachHover(c);
  charts[m.key] = c;
  return c;
}

function pathFor(vals, min, max, W, H){
  if (!vals.length) return "";
  var span = (max-min)||1, d = "";
  for (var i=0;i<vals.length;i++){
    var x = vals.length===1 ? W/2 : 4 + (W-8)*i/(vals.length-1);
    var y = H-6 - (H-14)*((vals[i]-min)/span);
    d += (i?" L":"M")+x.toFixed(1)+" "+y.toFixed(1);
  }
  return d;
}

function render(c){
  var W=300, H=72, svg=c.svg, min=Infinity, max=-Infinity, any=false;
  c.series.forEach(function(s){ s.vals.forEach(function(v){
    any=true; if(v<min)min=v; if(v>max)max=v; }); });
  if (!any){ min=0; max=1; }
  if (min>0 && min<max*0.2) min=0;       // anchor near-zero series at zero
  if (min===max){ max=min+1; }
  var fmt = c.metric.fmt||fmt0;
  var html = '<line class="base" x1="0" y1="'+(H-6)+'" x2="'+W+'" y2="'+(H-6)+'"></line>';
  c.series.forEach(function(s){
    html += '<path class="line" style="stroke:var('+s.cssVar+')" d="'+
            pathFor(s.vals,min,max,W,H)+'"></path>';
  });
  html += '<text class="minmax" x="2" y="10">'+fmt(max)+'</text>';
  html += '<line class="xh" x1="-10" y1="0" x2="-10" y2="'+H+'"></line>';
  svg.innerHTML = html;
  c.min=min; c.max=max;
  var last = c.series.length && c.series[0].vals.length ?
      c.series.map(function(s){ return s.label+" "+fmt(s.vals[s.vals.length-1]||0); }).join("  ") : "";
  c.latest.textContent = last;
}

function attachHover(c){
  var svg=c.svg;
  svg.addEventListener("mousemove", function(ev){
    var n = c.series.length ? c.series[0].vals.length : 0;
    if (!n) return;
    var r = svg.getBoundingClientRect();
    var fx = (ev.clientX-r.left)/r.width*300;
    var i = Math.max(0, Math.min(n-1, Math.round((fx-4)/(292)*(n-1))));
    var x = n===1 ? 150 : 4+292*i/(n-1);
    var xh = svg.querySelector("line.xh");
    if (xh){ xh.setAttribute("x1",x); xh.setAttribute("x2",x); }
    var fmt = c.metric.fmt||fmt0;
    var html = '<span class="t">interval '+(c.firstIndex+i)+'</span>';
    c.series.forEach(function(s){
      html += '<br><span class="chip" style="background:var('+s.cssVar+
        ');display:inline-block;width:10px;height:3px;border-radius:2px;margin-right:4px;vertical-align:middle"></span>'+
        s.label+': '+fmt(s.vals[i]||0);
    });
    c.tip.innerHTML = html;
    c.tip.style.display = "block";
    var cx = ev.clientX - c.card.getBoundingClientRect().left;
    c.tip.style.left = Math.min(cx+12, c.card.clientWidth-c.tip.offsetWidth-4)+"px";
    c.tip.style.top = "28px";
  });
  svg.addEventListener("mouseleave", function(){
    c.tip.style.display="none";
    var xh = svg.querySelector("line.xh");
    if (xh){ xh.setAttribute("x1",-10); xh.setAttribute("x2",-10); }
  });
}

function legendHTML(doc){
  var el = document.getElementById("legend"), html="";
  doc.shards.slice(0,MAX_LINES).forEach(function(sh,i){
    html += '<span><span class="chip" style="background:var('+SHARD_VARS[i]+
            ')"></span>shard '+sh.shard+'</span>';
  });
  if (doc.shards.length>MAX_LINES)
    html += '<span class="empty">+'+(doc.shards.length-MAX_LINES)+' more in tables</span>';
  if (doc.merged && doc.merged.length)
    html += '<span><span class="chip" style="background:var('+MERGED_VAR+
            ')"></span>all shards</span>';
  el.innerHTML = html;
}

var KIND_STATUS = {
  "stall":        {v:"--status-critical", icon:"■", label:"stall"},
  "retry-storm":  {v:"--status-serious",  icon:"▲", label:"retry storm"},
  "drop-spike":   {v:"--status-serious",  icon:"▲", label:"drop spike"},
  "shard-skew":   {v:"--status-warning",  icon:"●", label:"shard skew"}
};
function renderAnomalies(doc){
  var el = document.getElementById("anoms");
  var list = doc.anomalies||[];
  if (!list.length){ el.innerHTML='<li class="empty">none yet</li>'; return; }
  var html = "";
  list.slice(-40).reverse().forEach(function(a){
    var st = KIND_STATUS[a.kind]||{v:"--status-warning",icon:"●",label:a.kind};
    html += '<li><span class="badge" style="color:var('+st.v+');border-color:var('+st.v+
      ')">'+st.icon+' '+st.label+'</span><span>'+escapeHTML(a.detail)+'</span>'+
      '<span class="when">'+(a.shard>=0?('shard '+a.shard+' · '):'')+
      'interval '+a.index+' · t='+(a.at_ns/1e9).toFixed(2)+'s</span></li>';
  });
  if (doc.anomalies_dropped)
    html += '<li class="empty">'+doc.anomalies_dropped+' older anomalies dropped past the bound</li>';
  el.innerHTML = html;
}
function escapeHTML(s){
  return String(s).replace(/[&<>"]/g, function(ch){
    return {"&":"&amp;","<":"&lt;",">":"&gt;","\"":"&quot;"}[ch];
  });
}

function renderMerge(doc){
  var sec = document.getElementById("mergesec");
  var w = doc.merge_waits||[];
  if (!w.length){ sec.style.display="none"; return; }
  sec.style.display="";
  var html = '<table><tr><th>shard</th><th>writes</th><th>max queued</th>'+
             '<th>stall episodes</th><th>blocked ms</th></tr>';
  w.forEach(function(r){
    html += '<tr><td>shard '+r.shard+'</td><td>'+r.writes.toLocaleString()+
      '</td><td>'+r.max_queued+'</td><td>'+r.stalls+
      '</td><td>'+(r.blocked_ns/1e6).toFixed(1)+'</td></tr>';
  });
  document.getElementById("merge").innerHTML = html+'</table>';
}

function renderTotals(doc){
  var rows = doc.shards.map(function(sh){
    var launched=0, completed=0, retries=0, dropped=0, wall=0;
    sh.samples.forEach(function(s){
      var c=s.counters||{};
      launched+=c["engine.launched"]||0; completed+=c["engine.completed"]||0;
      retries+=c["engine.retries"]||0; dropped+=drops(s); wall+=s.wall_ns;
    });
    return {shard:sh.shard, n:sh.samples.length, evicted:sh.evicted||0,
            launched:launched, completed:completed, retries:retries,
            dropped:dropped, wall:wall};
  });
  if (!rows.length){
    document.getElementById("totals").innerHTML='<span class="empty">no samples yet</span>';
    return;
  }
  var html = '<table><tr><th>shard</th><th>samples</th><th>evicted</th>'+
    '<th>launched</th><th>completed</th><th>retries</th><th>dropped</th>'+
    '<th>wall ms</th></tr>';
  rows.forEach(function(r){
    html += '<tr><td>shard '+r.shard+'</td><td>'+r.n+'</td><td>'+r.evicted+
      '</td><td>'+r.launched.toLocaleString()+'</td><td>'+r.completed.toLocaleString()+
      '</td><td>'+r.retries.toLocaleString()+'</td><td>'+r.dropped.toLocaleString()+
      '</td><td>'+(r.wall/1e6).toFixed(1)+'</td></tr>';
  });
  document.getElementById("totals").innerHTML = html+'</table>';
}

function update(doc){
  var interval = doc.interval_ns/1e6;
  var totalSamples = doc.shards.reduce(function(n,sh){ return n+sh.samples.length; },0);
  document.getElementById("sub").textContent =
    doc.shards.length+" shard"+(doc.shards.length===1?"":"s")+" · "+
    totalSamples+" samples retained · "+interval+" ms virtual cadence · ring "+doc.ring;
  legendHTML(doc);
  METRICS.forEach(function(m){
    var c = ensureChart(m);
    c.series = [];
    c.firstIndex = 0;
    doc.shards.slice(0,MAX_LINES).forEach(function(sh,i){
      c.series.push({label:"shard "+sh.shard, cssVar:SHARD_VARS[i],
                     vals:sh.samples.map(m.get)});
      if (sh.samples.length) c.firstIndex = sh.samples[0].index;
    });
    if (doc.merged && doc.merged.length){
      c.series.push({label:"all", cssVar:MERGED_VAR, vals:doc.merged.map(m.get)});
      c.firstIndex = doc.merged[0].index;
    }
    render(c);
  });
  renderAnomalies(doc);
  renderMerge(doc);
  renderTotals(doc);
}

function poll(){
  fetch("/timeseries").then(function(r){
    if (!r.ok) throw new Error("HTTP "+r.status);
    return r.json();
  }).then(update).catch(function(e){
    document.getElementById("sub").textContent = "waiting for telemetry: "+e.message;
  });
}
poll();
setInterval(function(){ if (!document.hidden) poll(); }, 2000);
</script>
</body>
</html>
`
