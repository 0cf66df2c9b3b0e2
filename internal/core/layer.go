package core

import (
	"fmt"

	"repro/internal/sim"
)

// State is a coordinator's position in the coordination protocol.
type State int

const (
	// Idle: not in an I/O phase; invisible to arbitration.
	Idle State = iota
	// Waiting: has informed the layer and is waiting for authorization
	// (either fresh, or paused mid-phase after an interruption).
	Waiting
	// Active: authorized and inside an I/O step.
	Active
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Waiting:
		return "waiting"
	case Active:
		return "active"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// AppView is the snapshot of one application's declared state handed to a
// Policy for arbitration. All knowledge comes from the app's Prepare info
// and its progress reports — the layer has no privileged information, which
// mirrors the paper's design: coordination works only from what applications
// share.
type AppView struct {
	Name       string
	Cores      int
	State      State
	Arrival    float64 // when this I/O phase first informed the layer
	BytesTotal float64 // declared bytes for the phase
	BytesDone  float64 // progress reported at Release points
	Files      int
	Rounds     int
	AloneBW    float64 // declared solo bandwidth; 0 = unknown
}

// Remaining returns the declared bytes still to write.
func (v AppView) Remaining() float64 {
	r := v.BytesTotal - v.BytesDone
	if r < 0 {
		r = 0
	}
	return r
}

// Decision is a policy's arbitration outcome.
type Decision struct {
	// Allowed maps application name -> authorized to access the file
	// system. Missing names are treated as not allowed.
	Allowed map[string]bool
	// RecheckAfter, when positive, asks the layer to re-arbitrate after
	// that many seconds even if nothing changes (used by delay policies).
	RecheckAfter float64
	// Reason is a human-readable explanation, kept in the decision log.
	Reason string
}

// AllowAll builds a decision authorizing every listed app.
func AllowAll(apps []AppView, reason string) Decision {
	d := Decision{Allowed: make(map[string]bool, len(apps)), Reason: reason}
	for _, a := range apps {
		d.Allowed[a.Name] = true
	}
	return d
}

// AllowOnly builds a decision authorizing exactly one app.
func AllowOnly(name, reason string) Decision {
	return Decision{Allowed: map[string]bool{name: true}, Reason: reason}
}

// Policy arbitrates file-system access among the applications currently in
// an I/O phase. Arbitrate is called whenever the set or progress of
// participating applications changes. The views are sorted by arrival time
// (ties by name) before the call.
type Policy interface {
	Name() string
	Arbitrate(now float64, apps []AppView) Decision
}

// DecisionRecord is a logged arbitration outcome.
type DecisionRecord struct {
	Time    float64
	Policy  string
	Allowed []string // sorted
	Reason  string
}

// Layer is the shared coordination medium: the stand-in for the common
// communicator the paper's prototype builds by launching all instances in
// one mpirun. Coordinators register here and every state change triggers an
// arbitration after the configured message latency.
//
// The arbitration state machine itself — view construction, the policy
// call, decision application — lives in an Arbiter shared with the network
// daemon (internal/server); the Layer contributes only the discrete-event
// mechanics: message latency, recheck scheduling and waking parked
// processes.
type Layer struct {
	eng     *sim.Engine
	arb     *Arbiter
	latency float64
	coords  []*Coordinator

	// arbitrateFn is l.arbitrate bound once, so delivering a message
	// allocates no method-value closure; recheck is the reusable timer
	// behind a policy's RecheckAfter.
	arbitrateFn func()
	recheck     *sim.Timer
}

// NewLayer creates a coordination layer with the given policy and one-way
// coordination message latency in seconds (the paper implements this as MPI
// messages between rank-0 coordinators; a millisecond is typical).
func NewLayer(eng *sim.Engine, policy Policy, latency float64) *Layer {
	if latency < 0 {
		panic("core: negative latency")
	}
	l := &Layer{eng: eng, arb: NewArbiter(policy), latency: latency}
	l.arbitrateFn = l.arbitrate
	l.recheck = eng.NewTimer(l.arbitrateFn)
	return l
}

// Policy returns the active policy.
func (l *Layer) Policy() Policy { return l.arb.Policy() }

// Arbiter returns the layer's arbitration core, for callers that tune it
// (Arbiter.SetIndexed, Arbiter.SetLogBound) before the first run.
func (l *Layer) Arbiter() *Arbiter { return l.arb }

// Reset returns the layer to its just-constructed state on a freshly reset
// engine, keeping the registered coordinators (and hence the policy and the
// arrival tie-break order) so a reused platform re-runs a scenario without
// re-registering. The decision log restarts with fresh backing — log slices
// already handed out via Log stay valid. The pending recheck, if any, was
// disarmed by the engine reset.
func (l *Layer) Reset() {
	l.arb.Reset()
	for _, c := range l.coords {
		c.reset()
	}
}

// Latency returns the one-way message latency.
func (l *Layer) Latency() float64 { return l.latency }

// Log returns the arbitration decision log.
func (l *Layer) Log() []DecisionRecord { return l.arb.Log() }

// Register creates a coordinator for an application. Cores is the size of
// the job, used by machine-wide efficiency metrics.
func (l *Layer) Register(name string, cores int) *Coordinator {
	app, err := l.arb.Register(name, cores)
	if err != nil {
		panic(err.Error())
	}
	c := &Coordinator{layer: l, app: app}
	app.Data = c
	l.coords = append(l.coords, c)
	return c
}

// poke schedules an arbitration after the message latency. Every protocol
// action (Inform, Release, End) calls it.
func (l *Layer) poke() {
	l.eng.PostAfter(l.latency, l.arbitrateFn)
}

func (l *Layer) arbitrate() {
	l.recheck.Cancel()
	out := l.arb.Arbitrate(l.eng.Now())
	if !out.Acted {
		return
	}
	if l.eng.Tracing() {
		if rec := l.arb.LastRecord(); rec != nil {
			l.eng.Tracef("calciom: policy=%s allowed=%v reason=%s", rec.Policy, rec.Allowed, rec.Reason)
		}
	}
	for _, a := range out.Granted {
		c := a.Data.(*Coordinator)
		if c.waiting != nil {
			// Authorization message travels back to the application.
			r := c.waiting
			l.eng.PostAfter(l.latency, r.Resume)
		}
	}
	if out.RecheckAfter > 0 {
		l.recheck.Schedule(out.RecheckAfter)
	}
}
