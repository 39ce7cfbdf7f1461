package netsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"iwscan/internal/stats"
)

// TestTimerRearmAllocFree pins what an owner-embedded Timer is for: once
// bound, arming, re-arming (the queued entry moves in place), cancelling
// and firing allocate nothing, and neither does binding with a
// non-capturing callback.
func TestTimerRearmAllocFree(t *testing.T) {
	type owner struct {
		timer Timer
		fired int
	}
	n := New(1)
	o := &owner{}
	bind := func() { o.timer.Bind(n, func(a any) { a.(*owner).fired++ }, o) }
	if avg := testing.AllocsPerRun(100, bind); avg != 0 {
		t.Errorf("Bind cost %.2f allocs, want 0", avg)
	}
	cycle := func() {
		o.timer.Arm(Second)     // a fresh entry
		o.timer.Arm(2 * Second) // moved in place
		o.timer.Cancel()
		o.timer.Arm(Millisecond)
		n.RunUntilIdle()
	}
	for i := 0; i < 10; i++ { // warm the event free list and the heap backing array
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("arm/re-arm/cancel/fire cycle cost %.2f allocs, want 0", avg)
	}
	if want := 10 + 1000 + 1; o.fired != want { // AllocsPerRun adds a warm-up run
		t.Errorf("fired %d times, want %d", o.fired, want)
	}
	if o.timer.Pending() || n.QueueLen() != 0 {
		t.Errorf("pending=%v queue=%d after the last fire, want idle", o.timer.Pending(), n.QueueLen())
	}
}

// TestTimerRearmedInsideBatch re-arms a timer whose entry was already
// popped into the in-flight drain batch by an earlier event at the same
// instant: the stale entry must not fire, and the timer fires once, at
// its new time — later, or at the same instant after the batch.
func TestTimerRearmedInsideBatch(t *testing.T) {
	for _, delay := range []Time{0, Millisecond} {
		n := New(1)
		var log []string
		var victim Timer
		victim.Bind(n, func(any) { log = append(log, fmt.Sprintf("victim@%v", n.Now())) }, nil)
		// One batch at 1ms: first, victim, last.
		n.At(Millisecond, func() {
			log = append(log, "first")
			victim.Arm(delay)
		})
		victim.ArmAt(Millisecond)
		n.At(Millisecond, func() { log = append(log, "last") })
		n.RunUntilIdle()
		want := fmt.Sprintf("[first last victim@%v]", Millisecond+delay)
		if got := fmt.Sprint(log); got != want {
			t.Errorf("re-arm by %v from inside the batch: log %s, want %s", delay, got, want)
		}
	}
}

// TestTimerPendingAcrossItsCallback checks Pending's edges: true once
// armed, false inside the timer's own callback (so the callback may
// re-arm it), false after Cancel.
func TestTimerPendingAcrossItsCallback(t *testing.T) {
	n := New(1)
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
	tm.Cancel() // a no-op before Bind
	fires := 0
	tm.Bind(n, func(any) {
		if tm.Pending() {
			t.Error("Pending inside its own callback")
		}
		if fires++; fires < 3 {
			tm.Arm(Millisecond)
		}
	}, nil)
	tm.Arm(Millisecond)
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	n.RunUntilIdle()
	if fires != 3 || n.Now() != 3*Millisecond {
		t.Fatalf("fired %d times by %v, want 3 by 3ms", fires, n.Now())
	}
	tm.Arm(Second)
	tm.Cancel()
	if tm.Pending() || n.QueueLen() != 0 {
		t.Fatalf("cancelled timer: pending=%v queue=%d", tm.Pending(), n.QueueLen())
	}
}

// timerModel is the surface the order property drives: bound timers
// named by index, plus one-shot callbacks.
type timerModel interface {
	Now() Time
	ArmAt(id int, at Time)
	Cancel(id int)
	Pending(id int) bool
	OneShot(id int, at Time)
	Run(deadline Time)
	RunUntilIdle()
}

// netModel is the Network under test.
type netModel struct {
	n      *Network
	timers []Timer
	fire   func(id int)
}

func newNetModel(k int, fire func(id int)) *netModel {
	m := &netModel{n: New(1), timers: make([]Timer, k), fire: fire}
	for i := range m.timers {
		m.timers[i].Bind(m.n, func(a any) { fire(a.(int)) }, i)
	}
	return m
}

func (m *netModel) Now() Time               { return m.n.Now() }
func (m *netModel) ArmAt(id int, at Time)   { m.timers[id].ArmAt(at) }
func (m *netModel) Cancel(id int)           { m.timers[id].Cancel() }
func (m *netModel) Pending(id int) bool     { return m.timers[id].Pending() }
func (m *netModel) OneShot(id int, at Time) { m.n.At(at, func() { m.fire(id) }) }
func (m *netModel) Run(deadline Time)       { m.n.Run(deadline) }
func (m *netModel) RunUntilIdle()           { m.n.RunUntilIdle() }

// refModel is the determinism contract written the slow, obvious way:
// every arm takes the next insertion seq, pending entries sit in one
// list sorted by (time, seq), and the head fires next, one at a time.
type refModel struct {
	now  Time
	seq  uint64
	live []refEntry
	fire func(id int)
}

type refEntry struct {
	id  int
	at  Time
	seq uint64
}

func (r *refModel) Now() Time { return r.now }
func (r *refModel) ArmAt(id int, at Time) {
	r.Cancel(id)
	if at < r.now {
		at = r.now
	}
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].at > at })
	r.live = slices.Insert(r.live, i, refEntry{id, at, r.seq})
	r.seq++
}
func (r *refModel) Cancel(id int) {
	r.live = slices.DeleteFunc(r.live, func(e refEntry) bool { return e.id == id })
}
func (r *refModel) Pending(id int) bool {
	return slices.ContainsFunc(r.live, func(e refEntry) bool { return e.id == id })
}
func (r *refModel) OneShot(id int, at Time) { r.ArmAt(id, at) }
func (r *refModel) RunUntilIdle()           { r.Run(1 << 62) }
func (r *refModel) Run(deadline Time) {
	for len(r.live) > 0 && r.live[0].at <= deadline {
		e := r.live[0]
		r.live = r.live[1:]
		r.now = e.at
		r.fire(e.id)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// timerScript drives m through a seeded sequence of arms, re-arms,
// cancels, one-shots, same-instant bursts and deadline runs, with
// callbacks that themselves re-arm and cancel, and returns the log of
// (id, time) firings and pending-set snapshots. Callbacks draw from the
// same RNG as the script, so two models stay on the same script only as
// long as they fire in the same order.
func timerScript(seed uint64, newModel func(fire func(id int)) timerModel) []string {
	const k = 12
	rng := stats.NewRNG(seed)
	var log []string
	var m timerModel
	nextShot := k
	delay := func() Time { return Time(rng.Intn(5)) * Millisecond }
	fire := func(id int) {
		log = append(log, fmt.Sprintf("%d@%d", id, m.Now()))
		if len(log) > 4000 {
			return // bound the chain reactions
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			if id < k {
				m.ArmAt(id, m.Now()+delay())
			}
		case 3:
			m.ArmAt(rng.Intn(k), m.Now()+delay())
		case 4:
			m.Cancel(rng.Intn(k))
		case 5:
			m.OneShot(nextShot, m.Now()+delay())
			nextShot++
		}
	}
	m = newModel(fire)
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(12); {
		case op < 5:
			m.ArmAt(rng.Intn(k), m.Now()+delay()-Millisecond) // sometimes in the past
		case op < 7:
			m.Cancel(rng.Intn(k))
		case op < 8:
			m.OneShot(nextShot, m.Now()+delay())
			nextShot++
		case op < 9: // a burst past one drain batch at a single instant
			at := m.Now() + delay()
			for i := rng.Intn(2 * drainBatchMax); i > 0; i-- {
				m.OneShot(nextShot, at)
				nextShot++
			}
		default:
			m.Run(m.Now() + delay())
		}
		pending := make([]byte, k)
		for id := range pending {
			pending[id] = '.'
			if m.Pending(id) {
				pending[id] = 'p'
			}
		}
		log = append(log, fmt.Sprintf("t=%d %s", m.Now(), pending))
	}
	m.RunUntilIdle()
	return log
}

// TestTimerOrderMatchesReference is the property behind the determinism
// contract: across random arm / re-arm / cancel / fire / Run(deadline)
// sequences, the event heap (with its in-place re-arm and batched drain)
// fires timers in exactly the (time, seq) order of the reference model,
// at the same virtual times, with the same pending sets between steps.
func TestTimerOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got := timerScript(seed, func(fire func(int)) timerModel { return newNetModel(12, fire) })
		want := timerScript(seed, func(fire func(int)) timerModel {
			return &refModel{fire: fire}
		})
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				g, w := "<end>", "<end>"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("seed %d: entry %d: network %q, reference %q", seed, i, g, w)
			}
		}
	}
}
