// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. Simulated processes are goroutines that run one at a time under a
// strict handshake with the scheduler, so a simulation is fully deterministic
// regardless of GOMAXPROCS: at any instant either the scheduler or exactly
// one process goroutine is runnable.
//
// Time is a float64 number of seconds. Ties are broken by event creation
// order, so schedules built in the same order replay identically.
//
// The engine is built for allocation-free steady-state operation: fired and
// cancelled event records return to a free list, zero-delay callbacks run
// through a reusable FIFO ring (Post), and recurring timeouts can reuse an
// owner-managed Timer instead of allocating a fresh event per occurrence.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// record is the engine-internal scheduled-callback state. Records are stored
// in the heap by pointer and recycled through a free list once they fire or
// are cancelled — except Timer-owned records, which belong to their Timer.
type record struct {
	time   float64
	seq    uint64
	fn     func()
	idx    int    // heap index; -1 when not queued
	handle *Event // attached cancellation handle, nil for Timer/Post records
	owned  bool   // Timer-owned: never returned to the engine free list
}

// Event is a cancellation handle for a callback scheduled with Schedule or
// At. The handle detaches from its underlying record when the event fires or
// is cancelled, so holding (or re-cancelling) a stale handle is always safe
// even though records are pooled and reused.
type Event struct {
	time float64
	rec  *record
}

// Time returns the virtual time at which the event fires (or fired).
func (ev *Event) Time() float64 { return ev.time }

// Cancelled reports whether the event has fired or been cancelled.
func (ev *Event) Cancelled() bool { return ev.rec == nil }

type eventHeap []*record

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	r := x.(*record)
	r.idx = len(*h)
	*h = append(*h, r)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	r.idx = -1
	*h = old[:n-1]
	return r
}

// zeroCall is one entry of the zero-delay FIFO ring. Entries are created by
// Post at the current time and always run before the clock advances, ordered
// against heap events by the shared sequence counter.
type zeroCall struct {
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap

	// zq is the zero-delay callback ring: Post appends, the run loop
	// consumes from zhead. When drained it is reset in place, so steady
	// state does not allocate.
	zq    []zeroCall
	zhead int

	// free is the record free list. Records recycle through it when they
	// fire or are cancelled, so steady-state scheduling does not allocate.
	free []*record

	// yield is signalled by a process goroutine when it parks or exits,
	// returning control to the scheduler.
	yield chan struct{}

	// procFree holds pooled procs (channel + wake timer + bound closures;
	// no goroutine while idle) ready for reuse by Go/GoAt. Finished procs
	// first land on procRetired — not directly on the free list — so a
	// *Proc handle returned by Go stays valid (Done, Name) for the rest of
	// the run; Reset moves retired procs to the free list.
	procFree    []*Proc
	procRetired []*Proc

	procs   int // live (started, not finished) processes
	stopped bool
	tracer  Tracer
}

// Tracer receives a line for every traced simulation action. Nil disables
// tracing.
type Tracer interface {
	Trace(now float64, format string, args ...any)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(now float64, format string, args ...any)

// Trace implements Tracer.
func (f TracerFunc) Trace(now float64, format string, args ...any) { f(now, format, args...) }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTracer installs a tracer for debugging; nil disables tracing.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Tracing reports whether a tracer is installed. Hot callers check it
// before Tracef, whose variadic arguments are boxed even when tracing is
// off.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef emits a trace line if a tracer is installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer.Trace(e.now, format, args...)
	}
}

// newRecord pops a record from the free list, or allocates one.
func (e *Engine) newRecord() *record {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return r
	}
	return &record{idx: -1}
}

// release detaches a record's handle and returns it to the free list.
// Timer-owned records are left to their owner.
func (e *Engine) release(r *record) {
	if r.handle != nil {
		r.handle.rec = nil
		r.handle = nil
	}
	r.fn = nil
	if !r.owned {
		e.free = append(e.free, r)
	}
}

// Schedule registers fn to run after delay seconds. A negative delay is an
// error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At registers fn to run at absolute time t, which must not be in the past
// and must not be NaN.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling in the past or at NaN: t=%v now=%v", t, e.now))
	}
	r := e.push(t, fn)
	ev := &Event{time: t, rec: r}
	r.handle = ev
	return ev
}

// push queues fn at absolute time t on a pooled record, taking the next
// sequence number.
func (e *Engine) push(t float64, fn func()) *record {
	r := e.newRecord()
	r.time = t
	r.seq = e.seq
	r.fn = fn
	e.seq++
	heap.Push(&e.events, r)
	return r
}

// Post registers fn to run at the current time, after every already-queued
// callback for this instant — exactly like Schedule(0, fn) but through a
// reusable FIFO ring with no handle and no allocation. It is the fast path
// for the overwhelmingly common fire-and-forget zero-delay callback
// (completion notifications, process wake-ups); use Schedule(0, fn) only
// when the callback might need cancelling.
func (e *Engine) Post(fn func()) {
	e.zq = append(e.zq, zeroCall{seq: e.seq, fn: fn})
	e.seq++
}

// PostAfter registers fn to run after delay seconds — exactly like
// Schedule(delay, fn), consuming the same sequence number and so firing in
// the same order, but with no cancellation handle: the record comes from
// the free list and scheduling allocates nothing. It is the delayed sibling
// of Post, for fire-and-forget callbacks such as message deliveries.
func (e *Engine) PostAfter(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	e.push(e.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or cancelled
// event is a no-op: the handle detached from its (since recycled) record
// when the event fired, so a stale Cancel can never hit a reused record.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.rec == nil {
		return
	}
	r := ev.rec
	if r.idx >= 0 {
		heap.Remove(&e.events, r.idx)
	}
	e.release(r)
}

// Pending returns the number of callbacks waiting to fire, including posted
// zero-delay callbacks.
func (e *Engine) Pending() int { return len(e.events) + len(e.zq) - e.zhead }

// Reset returns the engine to a pristine state — clock at zero, sequence
// counter restarted, no pending events — while keeping its allocated
// capacity: the record free list, the heap's backing array and the Post
// ring survive, so a worker sweeping many simulation points can run every
// point on one engine and stop paying the per-run event allocations (the
// delta package's sweep workers do exactly this).
//
// Reset panics if live processes remain: their goroutines are parked on
// state the reset would orphan. Pending events are dropped, their
// cancellation handles detached (a stale Cancel stays a no-op) and
// Timer-owned records disarmed in place, so owners may re-arm their Timers
// after the reset. The tracer is kept.
func (e *Engine) Reset() {
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", e.procs))
	}
	for _, r := range e.events {
		r.idx = -1
		if r.handle != nil {
			r.handle.rec = nil
			r.handle = nil
		}
		r.fn = nil
		if !r.owned {
			e.free = append(e.free, r)
		}
	}
	e.events = e.events[:0]
	for i := e.zhead; i < len(e.zq); i++ {
		e.zq[i].fn = nil
	}
	e.zq = e.zq[:0]
	e.zhead = 0
	e.procFree = append(e.procFree, e.procRetired...)
	for i := range e.procRetired {
		e.procRetired[i] = nil
	}
	e.procRetired = e.procRetired[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until none remain or Stop is called. It returns the
// final clock value.
func (e *Engine) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with time <= horizon and, for a finite horizon,
// advances the clock all the way to it. It returns the final clock value.
//
// RunUntil panics if live processes remain blocked with no pending event to
// wake them and the horizon is infinite (a deadlock in the simulated
// system), because silently returning would make such bugs very hard to
// find. With a finite horizon, blocked processes may legitimately be waiting
// for signals scheduled later.
func (e *Engine) RunUntil(horizon float64) float64 {
	for !e.stopped {
		// Posted zero-delay callbacks live at the current instant; they
		// run before the clock can advance, interleaved with same-time
		// heap events by the shared sequence counter.
		if e.zhead < len(e.zq) && e.now <= horizon {
			zc := e.zq[e.zhead]
			if len(e.events) == 0 || e.events[0].time > e.now ||
				(e.events[0].time == e.now && zc.seq < e.events[0].seq) {
				e.zq[e.zhead].fn = nil
				e.zhead++
				if e.zhead == len(e.zq) {
					e.zq = e.zq[:0]
					e.zhead = 0
				}
				zc.fn()
				continue
			}
		}
		if len(e.events) == 0 {
			break
		}
		next := e.events[0]
		if next.time > horizon {
			break
		}
		heap.Pop(&e.events)
		e.now = next.time
		fn := next.fn
		e.release(next)
		fn()
	}
	if !e.stopped && !math.IsInf(horizon, 1) {
		if e.now < horizon {
			e.now = horizon
		}
		return e.now
	}
	if !e.stopped && e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.procs, e.now))
	}
	return e.now
}

// Timer is a reusable scheduled callback owned by its creator: one callback
// function, at most one pending occurrence, zero allocations to (re)arm.
// It is the tool for recurring timeout patterns — e.g. a contention model's
// "next completion" event that is cancelled and rescheduled on every rate
// change. Not safe for use from multiple goroutines (like the Engine).
type Timer struct {
	eng *Engine
	fn  func()
	rec record
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, fn: fn}
	t.rec.owned = true
	t.rec.idx = -1
	return t
}

// Schedule arms the timer to fire after delay seconds, replacing any pending
// occurrence. Panics on negative or NaN delays, like Engine.Schedule.
func (t *Timer) Schedule(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	t.ScheduleAt(t.eng.now + delay)
}

// ScheduleAt arms the timer to fire at absolute time at, replacing any
// pending occurrence. Panics on past or NaN times, like Engine.At.
func (t *Timer) ScheduleAt(at float64) {
	e := t.eng
	if at < e.now || math.IsNaN(at) {
		panic(fmt.Sprintf("sim: scheduling in the past or at NaN: t=%v now=%v", at, e.now))
	}
	t.Cancel()
	t.rec.time = at
	t.rec.seq = e.seq
	t.rec.fn = t.fn
	e.seq++
	heap.Push(&e.events, &t.rec)
}

// Cancel disarms a pending timer; a no-op if the timer is not pending.
func (t *Timer) Cancel() {
	if t.rec.idx >= 0 {
		heap.Remove(&t.eng.events, t.rec.idx)
		t.rec.fn = nil
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.rec.idx >= 0 }

// When returns the fire time of a pending timer (meaningless otherwise).
func (t *Timer) When() float64 { return t.rec.time }
