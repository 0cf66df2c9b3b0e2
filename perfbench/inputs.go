package main

import (
	"fmt"
	"math/rand/v2"
)

// session is one generated CALCioM application: its registered name, the
// storage target its cycles address, and the mux connection it rides
// (ignored by plain-connection workloads).
type session struct {
	Name   string
	Target string
	Conn   int
}

// daemonInputs is everything a daemon workload hands the program under
// test. Workers[w] lists the sessions worker w drives, in visit order.
type daemonInputs struct {
	Sessions []session
	Workers  [][]int
}

// sweepInputs is everything delta-sweep hands the simulator: the ∆ points
// in sweep order and the order in which the four policies run per round.
type sweepInputs struct {
	DTs      []float64
	Policies []string
}

// rng returns the workload generator for a seed. PCG output is specified
// by math/rand/v2, so a seed means the same inputs on every Go release.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xca1c10))
}

// appName and targetName are fixed width, so wire bytes per request do not
// depend on the seed.
func appName(i int) string    { return fmt.Sprintf("app-%03d", i) }
func targetName(i int) string { return fmt.Sprintf("ost%02d", i) }

// Every seed yields the same shape — sessions per target, workers per
// connection, sessions per connection on each target — so a seed changes
// which names sit where and in what order, never how balanced the load is.

// muxStormInputs places 256 sessions on 64 targets, four per target, each
// target driven by one worker that rotates over its sessions; a worker's
// sessions share one of the two connections, 32 workers on each. The seed
// picks which sessions share a target, their visit order and which workers
// share a connection.
func muxStormInputs(seed uint64) daemonInputs {
	const sessions, workers, conns = 256, 64, 2
	r := rng(seed)
	in := daemonInputs{Sessions: make([]session, sessions), Workers: make([][]int, workers)}
	conn := r.Perm(workers)
	perm := r.Perm(sessions)
	per := sessions / workers
	for w := range in.Workers {
		for _, i := range perm[w*per : (w+1)*per] {
			in.Sessions[i] = session{Name: appName(i), Target: targetName(w), Conn: conn[w] % conns}
			in.Workers[w] = append(in.Workers[w], i)
		}
	}
	return in
}

// hotTargetInputs places 256 sessions on two targets, 128 each, one worker
// per session, with each target's sessions split evenly over the two
// connections. The seed picks the two target names, which sessions contend
// on which target and ride which connection, and the order workers start
// in.
func hotTargetInputs(seed uint64) daemonInputs {
	const sessions, conns = 256, 2
	r := rng(seed)
	in := daemonInputs{Sessions: make([]session, sessions)}
	ta := r.IntN(100)
	tb := (ta + 1 + r.IntN(99)) % 100
	for k, i := range r.Perm(sessions) {
		t := ta
		if k%2 == 1 {
			t = tb
		}
		in.Sessions[i] = session{Name: appName(i), Target: targetName(t), Conn: k / 2 % conns}
	}
	for _, i := range r.Perm(sessions) {
		in.Workers = append(in.Workers, []int{i})
	}
	return in
}

// plainJSONInputs is two sessions, each on its own plain connection and its
// own target, each driven by its own worker. The seed picks the names and
// the targets.
func plainJSONInputs(seed uint64) daemonInputs {
	r := rng(seed)
	ta := r.IntN(100)
	tb := (ta + 1 + r.IntN(99)) % 100
	a, b := r.IntN(1000), r.IntN(999)
	if b >= a {
		b++
	}
	return daemonInputs{
		Sessions: []session{
			{Name: appName(a), Target: targetName(ta)},
			{Name: appName(b), Target: targetName(tb)},
		},
		Workers: [][]int{{0}, {1}},
	}
}

// sweepPoints is the ∆ grid of Figs. 7 and 9: B starts -24 s to +24 s
// after A, one point per second.
const sweepPoints = 49

// sweepPolicies are the policies every round sweeps, in canonical order.
var sweepPolicies = []string{"uncoordinated", "fcfs", "interrupt", "interfere"}

// deltaSweepInputs shuffles the ∆ points and the per-round policy order.
func deltaSweepInputs(seed uint64) sweepInputs {
	r := rng(seed)
	in := sweepInputs{DTs: make([]float64, sweepPoints)}
	for i, k := range r.Perm(sweepPoints) {
		in.DTs[i] = float64(k - sweepPoints/2)
	}
	for _, k := range r.Perm(len(sweepPolicies)) {
		in.Policies = append(in.Policies, sweepPolicies[k])
	}
	return in
}
