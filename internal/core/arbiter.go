package core

import (
	"fmt"
	"maps"
	"sort"
)

// AppState is one application's protocol state as the arbitration core sees
// it: registration identity, the folded Prepare info, phase state and the
// current authorization. It is the piece of the coordination layer shared
// between the two deployment modes — the discrete-event simulator wraps one
// per Coordinator, and the network daemon wraps one per client session — so
// view construction and decision application cannot drift between them.
//
// AppState methods never panic: protocol violations (Complete without
// Prepare, Release while not active) are returned as errors, because on the
// daemon path they are client bugs the server must survive. The simulator's
// Coordinator converts them back to panics, as a protocol violation there is
// a bug in the experiment itself.
type AppState struct {
	// Data is an owner-managed cookie: the sim layer stores the
	// *Coordinator, the daemon stores its session. The arbitration core
	// never touches it.
	Data any

	name     string
	cores    int
	regCores int // cores at registration; Prepare may override cores, Reset restores this
	idx      int // position in Arbiter.apps; -1 once unregistered

	state      State
	arrival    float64
	authorized bool

	bytesTotal float64
	bytesDone  float64
	files      int
	rounds     int
	aloneBW    float64

	infoStack []Info

	allowedNow bool // per-arbitration scratch, meaningful only inside Arbitrate
}

// Name returns the application name.
func (a *AppState) Name() string { return a.name }

// Cores returns the application's core count (possibly updated by Prepare).
func (a *AppState) Cores() int { return a.cores }

// State returns the protocol state.
func (a *AppState) State() State { return a.state }

// Authorized reports the current arbitration outcome for this application.
func (a *AppState) Authorized() bool { return a.authorized }

// View snapshots the application for arbitration.
func (a *AppState) View() AppView {
	return AppView{
		Name:       a.name,
		Cores:      a.cores,
		State:      a.state,
		Arrival:    a.arrival,
		BytesTotal: a.bytesTotal,
		BytesDone:  a.bytesDone,
		Files:      a.files,
		Rounds:     a.rounds,
		AloneBW:    a.aloneBW,
	}
}

// Prepare stacks information about the upcoming I/O accesses, as the paper's
// Prepare(MPI_Info) does. Recognized keys update the view policies see.
// The stack holds a private copy of info; a map popped by an earlier
// Complete (or cleared by Arbiter.Reset) is refilled instead of cloning a
// fresh one, so a phase-per-Prepare steady state allocates nothing.
func (a *AppState) Prepare(info Info) {
	n := len(a.infoStack)
	if n == cap(a.infoStack) {
		a.infoStack = append(a.infoStack, nil)
	} else {
		a.infoStack = a.infoStack[:n+1]
	}
	if m := a.infoStack[n]; m != nil {
		clear(m)
		maps.Copy(m, info)
	} else {
		a.infoStack[n] = info.Clone()
	}
	a.applyInfo()
}

// Complete unstacks the most recent Prepare, keeping its map for the next
// Prepare to refill.
func (a *AppState) Complete() error {
	if len(a.infoStack) == 0 {
		return fmt.Errorf("core: %s: Complete without Prepare", a.name)
	}
	a.infoStack = a.infoStack[:len(a.infoStack)-1]
	a.applyInfo()
	return nil
}

// applyInfo folds the info stack (later entries win) into the typed view.
func (a *AppState) applyInfo() {
	a.bytesTotal, a.files, a.rounds, a.aloneBW = 0, 0, 0, 0
	for _, in := range a.infoStack {
		if v := in.Float(KeyBytesTotal, -1); v >= 0 {
			a.bytesTotal = v
		}
		if v := in.Int(KeyFiles, -1); v >= 0 {
			a.files = int(v)
		}
		if v := in.Int(KeyRounds, -1); v >= 0 {
			a.rounds = int(v)
		}
		if v := in.Float(KeyAloneBW, -1); v >= 0 {
			a.aloneBW = v
		}
		if v := in.Int(KeyCores, -1); v > 0 {
			a.cores = int(v)
		}
	}
}

// Inform announces the application's intent (or continued intent) to do I/O.
// On the first Inform of a phase it records the arrival time and resets the
// progress counter; it reports whether this opened a fresh phase.
func (a *AppState) Inform(now float64) (fresh bool) {
	if a.state != Idle {
		return false
	}
	a.state = Waiting
	a.arrival = now
	a.bytesDone = 0
	return true
}

// Activate marks the application inside an I/O step, the transition a
// successful Wait makes.
func (a *AppState) Activate() error {
	if a.state == Idle {
		return fmt.Errorf("core: %s: Wait before Inform", a.name)
	}
	a.state = Active
	return nil
}

// Release ends one step of the I/O access; a new Inform is required before
// the next access step, per the paper's API contract.
func (a *AppState) Release() error {
	if a.state != Active {
		return fmt.Errorf("core: %s: Release while %v", a.name, a.state)
	}
	a.state = Waiting
	return nil
}

// End terminates the I/O phase entirely: the application becomes invisible
// to arbitration until its next Inform.
func (a *AppState) End() {
	a.state = Idle
	a.authorized = false
}

// Progress records bytes written so far in this phase.
func (a *AppState) Progress(bytesDone float64) {
	if bytesDone > a.bytesDone {
		a.bytesDone = bytesDone
	}
}

// IndexedArbitrator is an optional allocation-free fast path for policies:
// instead of returning a Decision with a freshly allocated Allowed map, the
// policy marks allowed[i] for each authorized apps[i]. The views arrive
// sorted by (arrival, name) and allowed arrives all-false, len(allowed) ==
// len(apps). The returned reason should be a constant (no formatting) so the
// fast path stays allocation-free; recheck follows Decision.RecheckAfter
// semantics.
//
// The daemon's arbitration loop enables this path (Arbiter.SetIndexed), and
// so do delta.Sweeper workers, which never read the decision log; the rest
// of the simulator keeps the map-based path so its decision logs — which
// feed the figure reproductions — are byte-identical to the original
// implementation.
type IndexedArbitrator interface {
	ArbitrateIndexed(now float64, apps []AppView, allowed []bool) (reason string, recheck float64)
}

// Outcome is the result of one Arbiter.Arbitrate call. The Granted and
// Revoked slices are scratch owned by the Arbiter, valid until the next
// Arbitrate call; callers must not retain them.
type Outcome struct {
	// Acted is false when no application was in an I/O phase (nothing to
	// arbitrate, no decision logged).
	Acted bool
	// Reason is the policy's explanation for the decision.
	Reason string
	// RecheckAfter, when positive, asks the caller to re-arbitrate after
	// that many seconds even if nothing changes.
	RecheckAfter float64
	// Granted lists apps whose authorization flipped false→true, in
	// registration order.
	Granted []*AppState
	// Revoked lists apps whose authorization flipped true→false, in
	// registration order.
	Revoked []*AppState
}

// Arbiter owns the arbitration state machine shared by the simulator Layer
// and the network daemon: the registered applications, the sorted AppView
// scratch handed to the policy, and the application of the policy's decision
// back onto per-app authorization bits. Steady-state arbitration reuses all
// scratch; with a policy implementing IndexedArbitrator and logging bounded,
// the hot path performs no per-request allocation.
//
// The Arbiter is not goroutine-safe: the sim engine is single-threaded, and
// the daemon funnels every request through one arbitration goroutine (which
// is also what makes daemon decisions deterministic given a serialized
// request order).
type Arbiter struct {
	policy     Policy
	useIndexed bool
	logBound   int // <0 unlimited, 0 disabled, >0 keep last N records

	apps []*AppState

	// Arbitration scratch, reused across calls.
	views    []AppView
	viewApps []*AppState
	allowed  []bool
	granted  []*AppState
	revoked  []*AppState

	// log is append-only when unbounded; with a positive bound it becomes
	// a ring once full — logHead is the next overwrite slot and each
	// overwritten record's Allowed backing is reused, so bounded logging
	// costs no steady-state allocation.
	log     []DecisionRecord
	logHead int
}

// NewArbiter creates an arbiter running the given policy, with unlimited
// decision logging and the map-based policy path (simulator defaults).
func NewArbiter(policy Policy) *Arbiter {
	if policy == nil {
		panic("core: nil policy")
	}
	return &Arbiter{policy: policy, logBound: -1}
}

// Policy returns the active policy.
func (ar *Arbiter) Policy() Policy { return ar.policy }

// SetIndexed selects the IndexedArbitrator fast path when the policy
// implements it. Decisions are identical; only Reason strings differ
// (constants instead of formatted text).
func (ar *Arbiter) SetIndexed(on bool) { ar.useIndexed = on }

// Reset returns the arbiter to its just-constructed state while keeping the
// registered applications (in registration order) and the arbitration
// scratch: every AppState goes back to Idle/unauthorized with an empty info
// stack (its maps kept for Prepare to refill), and the decision log restarts
// with fresh backing — the old log slice may have escaped via Log and must
// stay valid for its holder.
func (ar *Arbiter) Reset() {
	for _, a := range ar.apps {
		a.state = Idle
		a.arrival = 0
		a.authorized = false
		a.cores = a.regCores // undo any Prepare(KeyCores) override
		a.bytesTotal, a.bytesDone = 0, 0
		a.files, a.rounds = 0, 0
		a.aloneBW = 0
		a.allowedNow = false
		a.infoStack = a.infoStack[:0]
	}
	ar.log = nil
	ar.logHead = 0
}

// SetLogBound bounds the decision log: negative keeps everything (default),
// zero disables logging, positive keeps the most recent n records in a ring
// whose steady state allocates nothing. Set it before the first Arbitrate;
// changing the bound later scrambles the ring order.
func (ar *Arbiter) SetLogBound(n int) { ar.logBound = n }

// Log returns the arbitration decision log, oldest first. Once a bounded
// log has wrapped, this builds an ordered copy (a cold path; the hot path
// never calls it).
func (ar *Arbiter) Log() []DecisionRecord {
	if ar.logBound <= 0 || len(ar.log) < ar.logBound || ar.logHead == 0 {
		return ar.log
	}
	out := make([]DecisionRecord, 0, len(ar.log))
	out = append(out, ar.log[ar.logHead:]...)
	return append(out, ar.log[:ar.logHead]...)
}

// LastRecord returns the most recent decision record, or nil.
func (ar *Arbiter) LastRecord() *DecisionRecord {
	if len(ar.log) == 0 {
		return nil
	}
	if ar.logBound > 0 && len(ar.log) == ar.logBound {
		return &ar.log[(ar.logHead+ar.logBound-1)%ar.logBound]
	}
	return &ar.log[len(ar.log)-1]
}

// Apps returns the registered applications in registration order. The slice
// is owned by the Arbiter.
func (ar *Arbiter) Apps() []*AppState { return ar.apps }

// OtherAuthorized reports whether any registered application other than app
// currently holds authorization. The daemon and offline trace replay both
// use it to classify a deferred Wait as convoy (queued behind a holder)
// versus protocol (deferred with nobody authorized), so the classification
// cannot drift between live stats and replay.
func (ar *Arbiter) OtherAuthorized(app *AppState) bool {
	for _, a := range ar.apps {
		if a != app && a.authorized {
			return true
		}
	}
	return false
}

// Register adds an application. Names must be unique among currently
// registered applications.
func (ar *Arbiter) Register(name string, cores int) (*AppState, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty application name")
	}
	for _, a := range ar.apps {
		if a.name == name {
			return nil, fmt.Errorf("core: duplicate coordinator %q", name)
		}
	}
	a := &AppState{name: name, cores: cores, regCores: cores, idx: len(ar.apps)}
	ar.apps = append(ar.apps, a)
	return a, nil
}

// Unregister removes an application (a daemon session disconnecting). The
// registration order of the remaining applications is preserved, so decision
// application — and therefore grant delivery order — stays deterministic.
// Unregistering twice is a no-op.
func (ar *Arbiter) Unregister(a *AppState) {
	if a == nil || a.idx < 0 {
		return
	}
	copy(ar.apps[a.idx:], ar.apps[a.idx+1:])
	ar.apps[len(ar.apps)-1] = nil
	ar.apps = ar.apps[:len(ar.apps)-1]
	for i := a.idx; i < len(ar.apps); i++ {
		ar.apps[i].idx = i
	}
	a.idx = -1
}

// viewLess orders views by (arrival, name), the order policies are
// guaranteed to see.
func viewLess(a, b *AppView) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.Name < b.Name
}

// Arbitrate runs one arbitration round at the given time: it snapshots every
// non-idle application, sorts the views by (arrival, name), asks the policy
// for a decision, applies it to the per-app authorization bits, and logs the
// outcome. Authorization changes are reported in registration order so the
// caller's follow-up actions (waking simulated processes, pushing grants to
// network clients) happen in a deterministic order.
func (ar *Arbiter) Arbitrate(now float64) Outcome {
	ar.views = ar.views[:0]
	ar.viewApps = ar.viewApps[:0]
	for _, a := range ar.apps {
		if a.state == Idle {
			continue
		}
		ar.views = append(ar.views, a.View())
		ar.viewApps = append(ar.viewApps, a)
	}
	if len(ar.views) == 0 {
		return Outcome{}
	}
	// Insertion sort: views are near-sorted (arrivals are monotone within a
	// session) and the loop allocates nothing, unlike sort.Slice.
	for i := 1; i < len(ar.views); i++ {
		v, va := ar.views[i], ar.viewApps[i]
		j := i - 1
		for j >= 0 && viewLess(&v, &ar.views[j]) {
			ar.views[j+1], ar.viewApps[j+1] = ar.views[j], ar.viewApps[j]
			j--
		}
		ar.views[j+1], ar.viewApps[j+1] = v, va
	}

	ar.allowed = ar.allowed[:0]
	for range ar.views {
		ar.allowed = append(ar.allowed, false)
	}
	var reason string
	var recheck float64
	if ip, ok := ar.policy.(IndexedArbitrator); ok && ar.useIndexed {
		reason, recheck = ip.ArbitrateIndexed(now, ar.views, ar.allowed)
	} else {
		dec := ar.policy.Arbitrate(now, ar.views)
		reason, recheck = dec.Reason, dec.RecheckAfter
		for i, v := range ar.views {
			ar.allowed[i] = dec.Allowed[v.Name]
		}
	}

	for i, a := range ar.viewApps {
		a.allowedNow = ar.allowed[i]
	}
	ar.granted = ar.granted[:0]
	ar.revoked = ar.revoked[:0]
	for _, a := range ar.apps {
		if a.state == Idle {
			continue
		}
		was := a.authorized
		a.authorized = a.allowedNow
		switch {
		case a.authorized && !was:
			ar.granted = append(ar.granted, a)
		case !a.authorized && was:
			ar.revoked = append(ar.revoked, a)
		}
	}

	if ar.logBound != 0 {
		var names []string
		wrap := ar.logBound > 0 && len(ar.log) == ar.logBound
		if wrap {
			names = ar.log[ar.logHead].Allowed[:0] // reuse the evicted record's backing
		}
		for i, v := range ar.views {
			if ar.allowed[i] {
				names = append(names, v.Name)
			}
		}
		sort.Strings(names)
		rec := DecisionRecord{Time: now, Policy: ar.policy.Name(), Allowed: names, Reason: reason}
		if wrap {
			ar.log[ar.logHead] = rec
			ar.logHead = (ar.logHead + 1) % ar.logBound
		} else {
			ar.log = append(ar.log, rec)
		}
	}

	return Outcome{
		Acted:        true,
		Reason:       reason,
		RecheckAfter: recheck,
		Granted:      ar.granted,
		Revoked:      ar.revoked,
	}
}
