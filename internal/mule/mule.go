// Package mule implements the data-mule entity: a mobile agent that
// travels between waypoints at constant speed (the paper uses 2 m/s),
// dwells at targets to collect their data, drains its battery
// according to the energy model, recharges at recharge-station
// waypoints, and dies where it stands when the battery empties
// mid-leg — exactly the failure mode RW-TCTP is designed to prevent.
//
// Route decisions are delegated to a Router, so the same entity serves
// the fixed-route planners (B/W/RW-TCTP, CHB, Sweep) and the online
// Random baseline.
//
// A mule has at most one pending engine event. The leg that event
// completes — its waypoint, length and move energy, or the death point
// of a leg the battery cannot finish — is kept on the Mule, and the
// advance, arrive and death handlers are bound once in New, so
// scheduling a leg or a dwell allocates nothing.
package mule

import (
	"fmt"

	"tctp/internal/energy"
	"tctp/internal/geom"
	"tctp/internal/sim"
)

// NoTarget marks a waypoint that is not a target visit (e.g. the
// start point a mule moves to during location initialization).
const NoTarget = -1

// Waypoint is one stop on a mule's route.
type Waypoint struct {
	// Pos is the waypoint location.
	Pos geom.Point
	// TargetID is the target collected at this waypoint, or NoTarget.
	TargetID int
	// Recharge marks a recharge-station stop; the battery is restored
	// to full capacity on arrival.
	Recharge bool
	// NotBefore holds the mule at this waypoint until the given
	// absolute simulation time before it proceeds. B-TCTP's location
	// initialization uses it to start all mules patrolling
	// simultaneously once the slowest mule has reached its start
	// point. Zero means no hold.
	NotBefore float64
}

// Router supplies a mule's next waypoint. Next is called once the
// mule has finished its current stop (after dwelling, if the stop was
// a target). Returning ok == false parks the mule permanently.
type Router interface {
	Next(m *Mule) (wp Waypoint, ok bool)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(m *Mule) (Waypoint, bool)

// Next implements Router.
func (f RouterFunc) Next(m *Mule) (Waypoint, bool) { return f(m) }

// Config parameterizes a mule.
type Config struct {
	// ID identifies the mule in callbacks.
	ID int
	// Start is the initial location.
	Start geom.Point
	// Speed is the travel speed in m/s (paper: 2 m/s). Must be > 0.
	Speed float64
	// Energy is the consumption model (costs and dwell time).
	Energy energy.Model
	// Battery constrains the mule's energy; nil means unconstrained
	// (the B-TCTP and W-TCTP experiments ignore energy).
	Battery *energy.Battery
	// Router supplies waypoints. Required.
	Router Router
	// OnVisit, if non-nil, is called at the moment the mule arrives at
	// a target waypoint (visit timestamps define the paper's visiting
	// intervals).
	OnVisit func(muleID, targetID int, t float64)
	// OnDeath, if non-nil, is called when the battery empties.
	OnDeath func(muleID int, t float64, pos geom.Point)
	// OnRecharge, if non-nil, is called after a recharge completes.
	OnRecharge func(muleID int, t float64)
}

// Mule is the simulated agent. Create with New, start with Launch.
type Mule struct {
	cfg    Config
	eng    *sim.Engine
	pos    geom.Point
	dead   bool
	parked bool

	// pending is the mule's single outstanding engine event (there is
	// never more than one); Kill and Reroute cancel it to preempt the
	// mule mid-leg or mid-dwell.
	pending sim.Cancel
	// Leg tracking for mid-leg preemption: while inFlight, the mule is
	// somewhere on the segment legFrom→legTo, having departed at
	// legDepart; its true position is time-interpolated.
	inFlight  bool
	legFrom   geom.Point
	legTo     geom.Point
	legDepart float64
	legDist   float64
	// legWP and legEnergy complete the pending leg for arrive: the
	// waypoint reached at legTo and the energy the whole leg costs. A
	// death leg instead ends at legTo after legDist metres.
	legWP     Waypoint
	legEnergy float64

	// Event handlers bound once in New: scheduling a method value
	// directly would allocate a closure per leg.
	advanceFn, arriveFn, dieFn sim.Handler

	distance  float64
	visits    int
	energyUse float64
	recharges int
}

// New creates a mule bound to the engine. It panics on invalid
// configuration.
func New(eng *sim.Engine, cfg Config) *Mule {
	if cfg.Speed <= 0 {
		panic(fmt.Sprintf("mule: speed %v must be positive", cfg.Speed))
	}
	if cfg.Router == nil {
		panic("mule: nil router")
	}
	m := &Mule{cfg: cfg, eng: eng, pos: cfg.Start}
	m.advanceFn, m.arriveFn, m.dieFn = m.advance, m.arrive, m.die
	return m
}

// Launch schedules the mule's first movement at the current simulation
// time.
func (m *Mule) Launch() {
	m.pending = m.eng.After(0, m.advanceFn)
}

// ID returns the mule's identifier.
func (m *Mule) ID() int { return m.cfg.ID }

// Pos returns the mule's current (last event) position.
func (m *Mule) Pos() geom.Point { return m.pos }

// Dead reports whether the mule has exhausted its battery.
func (m *Mule) Dead() bool { return m.dead }

// Parked reports whether the router ended the route.
func (m *Mule) Parked() bool { return m.parked }

// Distance returns the total distance travelled in metres.
func (m *Mule) Distance() float64 { return m.distance }

// Visits returns the number of target collections performed.
func (m *Mule) Visits() int { return m.visits }

// EnergyConsumed returns the total energy drained in joules
// (irrespective of recharges).
func (m *Mule) EnergyConsumed() float64 { return m.energyUse }

// Recharges returns how many recharge stops the mule has completed.
func (m *Mule) Recharges() int { return m.recharges }

// Battery returns the mule's battery, or nil when unconstrained.
func (m *Mule) Battery() *energy.Battery { return m.cfg.Battery }

// advance asks the router for the next waypoint and starts the leg.
func (m *Mule) advance() {
	if m.dead || m.parked {
		return
	}
	wp, ok := m.cfg.Router.Next(m)
	if !ok {
		m.parked = true
		return
	}
	dist := m.pos.Dist(wp.Pos)
	moveEnergy := m.cfg.Energy.MoveEnergy(dist)

	if b := m.cfg.Battery; b != nil && !b.CanAfford(moveEnergy) {
		// The battery empties mid-leg: the mule dies after covering
		// whatever distance the remaining charge affords.
		affordable := dist
		if m.cfg.Energy.MoveCost > 0 {
			affordable = b.Level() / m.cfg.Energy.MoveCost
		}
		if affordable > dist {
			affordable = dist
		}
		deathPos := wp.Pos
		if dist > 0 {
			deathPos = m.pos.Lerp(wp.Pos, affordable/dist)
		}
		m.startLeg(deathPos, affordable)
		m.pending = m.eng.After(affordable/m.cfg.Speed, m.dieFn)
		return
	}

	m.startLeg(wp.Pos, dist)
	m.legWP, m.legEnergy = wp, moveEnergy
	m.pending = m.eng.After(dist/m.cfg.Speed, m.arriveFn)
}

// die ends a leg the battery could not finish: the mule stops at the
// leg's end point (legTo, legDist metres out) with an empty battery.
func (m *Mule) die() {
	b := m.cfg.Battery
	m.inFlight = false
	m.energyUse += b.Level()
	b.Drain(b.Level() + 1) // force dead
	m.distance += m.legDist
	m.pos = m.legTo
	m.dead = true
	if m.cfg.OnDeath != nil {
		m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
	}
}

// startLeg records the in-flight segment so Kill/Reroute/PosNow can
// interpolate the mule's position between departure and arrival events.
func (m *Mule) startLeg(to geom.Point, dist float64) {
	m.inFlight = true
	m.legFrom = m.pos
	m.legTo = to
	m.legDepart = m.eng.Now()
	m.legDist = dist
}

// settleLeg finalizes a preempted leg: the mule is moved to its
// time-interpolated position and the distance/energy actually spent on
// the partial leg is booked, exactly as arrive would have booked the
// whole leg.
func (m *Mule) settleLeg() {
	if !m.inFlight {
		return
	}
	m.inFlight = false
	covered := (m.eng.Now() - m.legDepart) * m.cfg.Speed
	if covered > m.legDist {
		covered = m.legDist
	}
	if covered < 0 {
		covered = 0
	}
	if m.legDist > 0 {
		m.pos = m.legFrom.Lerp(m.legTo, covered/m.legDist)
	} else {
		m.pos = m.legTo
	}
	m.distance += covered
	e := m.cfg.Energy.MoveEnergy(covered)
	m.energyUse += e
	if b := m.cfg.Battery; b != nil {
		b.Drain(e)
	}
}

// PosNow returns the mule's position at the current simulation time,
// interpolating along the in-flight leg when the mule is between
// waypoint events.
func (m *Mule) PosNow() geom.Point {
	if !m.inFlight || m.legDist <= 0 {
		return m.pos
	}
	frac := (m.eng.Now() - m.legDepart) * m.cfg.Speed / m.legDist
	if frac <= 0 {
		return m.legFrom
	}
	if frac >= 1 {
		return m.legTo
	}
	return m.legFrom.Lerp(m.legTo, frac)
}

// Kill stops the mule where it stands at the current simulation time —
// the injected-failure analogue of a battery death. The in-flight leg
// (if any) is settled at the interpolated position, the pending event
// is cancelled, and OnDeath fires. Killing a dead mule is a no-op.
func (m *Mule) Kill() {
	if m.dead {
		return
	}
	m.pending.Cancel()
	m.settleLeg()
	m.dead = true
	if m.cfg.OnDeath != nil {
		m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
	}
}

// Reroute swaps the mule's router mid-simulation: the in-flight leg is
// settled at the interpolated position, any pending dwell or hold is
// abandoned, and the mule immediately asks the new router for its next
// waypoint. Rerouting a dead mule only records the router.
func (m *Mule) Reroute(r Router) {
	m.cfg.Router = r
	if m.dead {
		return
	}
	m.pending.Cancel()
	m.settleLeg()
	m.parked = false
	m.pending = m.eng.After(0, m.advanceFn)
}

// arrive finalizes the pending leg (legWP, legDist, legEnergy):
// position/energy bookkeeping, recharge, collection dwell, then the
// next leg.
func (m *Mule) arrive() {
	if m.dead {
		return
	}
	wp, dist, moveEnergy := m.legWP, m.legDist, m.legEnergy
	m.inFlight = false
	m.pos = wp.Pos
	m.distance += dist
	m.energyUse += moveEnergy
	if b := m.cfg.Battery; b != nil {
		b.Drain(moveEnergy)
	}

	if wp.Recharge {
		if b := m.cfg.Battery; b != nil {
			b.Recharge()
		}
		m.recharges++
		if m.cfg.OnRecharge != nil {
			m.cfg.OnRecharge(m.cfg.ID, m.eng.Now())
		}
	}

	if wp.TargetID == NoTarget {
		m.pending = m.eng.After(m.holdDelay(wp, 0), m.advanceFn)
		return
	}

	// Target visit: the timestamp of record is the arrival instant.
	m.visits++
	if m.cfg.OnVisit != nil {
		m.cfg.OnVisit(m.cfg.ID, wp.TargetID, m.eng.Now())
	}
	visitEnergy := m.cfg.Energy.VisitEnergy()
	if b := m.cfg.Battery; b != nil {
		if !b.CanAfford(visitEnergy) {
			m.energyUse += b.Level()
			b.Drain(b.Level() + 1)
			m.dead = true
			if m.cfg.OnDeath != nil {
				m.cfg.OnDeath(m.cfg.ID, m.eng.Now(), m.pos)
			}
			return
		}
		b.Drain(visitEnergy)
	}
	m.energyUse += visitEnergy
	m.pending = m.eng.After(m.holdDelay(wp, m.cfg.Energy.Dwell), m.advanceFn)
}

// holdDelay returns the time to stay at the waypoint: at least the
// collection dwell, extended so the mule does not leave before
// wp.NotBefore.
func (m *Mule) holdDelay(wp Waypoint, dwell float64) float64 {
	d := dwell
	if wait := wp.NotBefore - m.eng.Now(); wait > d {
		d = wait
	}
	return d
}
