package experiments

import (
	"fmt"
	"io"
	"time"

	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/scanner"
	"iwscan/internal/timeseries"
)

// statusTick is the virtual-time cadence at which the reporter checks
// the wall clock. The simulation usually runs much faster than real
// time, so the wall-clock interval — not this tick — paces the output.
const statusTick = 250 * netsim.Millisecond

// statusReporter prints ZMap-style one-line progress to w while a scan
// runs: percent done, probe rates in virtual and wall time, hit rate
// (handshakes completed per probe started), and the in-flight level.
// It rides the simulation as a recurring virtual timer and stops when
// the engine finishes, so it never keeps RunUntilIdle alive.
type statusReporter struct {
	w        io.Writer
	net      *netsim.Network
	eng      *scanner.Engine
	label    string
	interval time.Duration

	synAcks   *metrics.Counter
	probes    *metrics.Counter
	ts        *timeseries.Store
	wallStart time.Time
	lastWall  time.Time
	lastSent  int64
	timer     netsim.Timer
	stopped   bool
}

// startStatusReporter arms the reporter; call stop() when the scan
// completes (it prints one final line so short scans still report).
// With a timeseries store attached the line also carries the live
// anomaly tally.
func startStatusReporter(w io.Writer, n *netsim.Network, eng *scanner.Engine, label string, interval time.Duration, ts *timeseries.Store) *statusReporter {
	now := time.Now()
	r := &statusReporter{
		w:         w,
		net:       n,
		eng:       eng,
		label:     label,
		interval:  interval,
		synAcks:   n.Metrics().Counter("core.synacks"),
		probes:    n.Metrics().Counter("core.probes_started"),
		ts:        ts,
		wallStart: now,
		lastWall:  now,
	}
	r.timer.Bind(n, func(a any) { a.(*statusReporter).tick() }, r)
	r.timer.Arm(statusTick)
	return r
}

func (r *statusReporter) tick() {
	if wall := time.Now(); wall.Sub(r.lastWall) >= r.interval {
		r.print(wall)
	}
	r.timer.Arm(statusTick)
}

func (r *statusReporter) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.timer.Cancel()
	r.print(time.Now())
}

func (r *statusReporter) print(wall time.Time) {
	st := r.eng.Stats()
	virtElapsed := r.net.Now() - st.StartedAt

	pct := 0.0
	if est := r.eng.TargetEstimate(); est > 0 {
		pct = 100 * float64(st.Launched) / float64(est)
		if pct > 100 {
			pct = 100
		}
	}
	virtRate := 0.0
	if virtElapsed > 0 {
		virtRate = float64(st.Launched) / virtElapsed.Seconds()
	}
	wallRate := 0.0
	if dt := wall.Sub(r.lastWall).Seconds(); dt > 0 {
		wallRate = float64(st.Launched-r.lastSent) / dt
	}
	hit := 0.0
	if p := r.probes.Value(); p > 0 {
		hit = 100 * float64(r.synAcks.Value()) / float64(p)
	}
	inFlight := st.Launched - st.Completed

	anom := ""
	if r.ts != nil {
		if total, _, last := r.ts.AnomalySummary(); total > 0 {
			anom = fmt.Sprintf(" | anomalies %d (last: %s)", total, last.Kind)
		}
	}

	fmt.Fprintf(r.w, "%s%s wall %v virt | %5.1f%% done | send %d (%s virt, %s wall) | hit %.1f%% | in-flight %d%s\n",
		r.label, fmtWall(wall.Sub(r.wallStart)), virtElapsed, pct,
		st.Launched, fmtRate(virtRate), fmtRate(wallRate), hit, inFlight, anom)

	r.lastWall = wall
	r.lastSent = st.Launched
}

// fmtWall renders a wall duration as m:ss, ZMap-style.
func fmtWall(d time.Duration) string {
	s := int(d.Seconds())
	return fmt.Sprintf("%d:%02d", s/60, s%60)
}

// fmtRate renders a probe rate with a k/M suffix.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1f Mp/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1f kp/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f p/s", r)
	}
}
