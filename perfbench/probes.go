package main

import (
	"bytes"
	"reflect"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// daemonLayers fills the per-layer metrics of a traced daemon run from the
// traced window w (plain is the untraced window run just before it).
func daemonLayers(r *result, wl daemonWorkload, in daemonInputs, st *stack, plain, w *window) {
	var inform, wait, release, end, cycle []float64
	for _, recs := range w.recs {
		for _, c := range recs {
			m := &c.marks
			inform = append(inform, float64(m[1]-m[0])/1e3)
			wait = append(wait, float64(m[3]-m[2])/1e3)
			release = append(release, float64(m[5]-m[4])/1e3)
			end = append(end, float64(m[7]-m[6])/1e3)
			cycle = append(cycle, float64(m[7])/1e3)
		}
	}
	r.layer["client.open_us"] = median(st.openNs) / 1e3
	r.layer["client.inform_p50_us"] = quantile(inform, 0.5)
	r.layer["client.wait_p50_us"] = quantile(wait, 0.5)
	r.layer["client.wait_p90_us"] = quantile(wait, 0.9)
	r.layer["client.release_p50_us"] = quantile(release, 0.5)
	r.layer["client.end_p50_us"] = quantile(end, 0.5)
	r.layer["client.cycle_p99_us"] = quantile(cycle, 0.99)

	reqs, resps, streams := cycleFrames(in)
	if wl.conns > 0 {
		enc, dec, size := wirebinProbe(r, reqs, resps, streams)
		r.layer["wirebin.encode_ns"], r.layer["wirebin.decode_ns"], r.layer["wirebin.bytes_per_frame"] = enc, dec, size
	} else {
		enc, dec, size := jsonProbe(r, reqs, resps)
		r.layer["wire.encode_ns"], r.layer["wire.decode_ns"], r.layer["wire.bytes_per_frame"] = enc, dec, size
	}

	d := func(name string) float64 { return w.reg1.delta(w.reg0, name) }
	grants := d("calciomd_grants_total")
	r.layer["server.batch_frames_mean"] = finite(d("calciomd_mux_batch_frames_sum") / d("calciomd_mux_batch_frames_count"))
	r.layer["server.bytes_per_req"] = finite((d("calciomd_bytes_in_total") + d("calciomd_bytes_out_total")) / float64(w.calls))
	r.layer["server.arbitrations_per_grant"] = finite(d("calciomd_arbitrations_total") / grants)
	deferred := d("calciomd_waits_deferred_total")
	r.layer["server.deferred_frac"] = finite(deferred / (deferred + d("calciomd_waits_immediate_total")))
	b := obs.DefaultLatencyBuckets
	r.layer["server.wait_p50_us"] = histQuantile(b, w.reg1.histDelta(w.reg0, "calciomd_wait_seconds", b), 0.5) * 1e6
	r.layer["server.hold_p50_us"] = histQuantile(b, w.reg1.histDelta(w.reg0, "calciomd_hold_seconds", b), 0.5) * 1e6

	r.layer["core.arbitrate_ns"] = arbitrateNs(arbiterShape(in))

	r.layer["runtime.sched_p50_us"] = schedQuantile(w.rt0, w.rt1, 0.5) * 1e6
	r.layer["runtime.sched_p90_us"] = schedQuantile(w.rt0, w.rt1, 0.9) * 1e6
	r.layer["runtime.ctxsw_per_grant"] = finite(float64(w.use1.ctxsw-w.use0.ctxsw) / float64(w.grants))
	r.layer["runtime.allocs_per_grant"] = finite(float64(w.rt1.allocs-w.rt0.allocs) / float64(w.grants))
	r.layer["runtime.gc_cycles"] = float64(w.rt1.gcCycles - w.rt0.gcCycles)

	traced, _ := w.clock.rates()
	untraced, _ := plain.clock.rates()
	r.layer["bench.traced_items_per_s"] = traced
	r.layer["bench.tracing_overhead_frac"] = finite(1 - traced/untraced)
	r.printf("tracing overhead   %12.1f 1/s  (untraced half %.1f, traced half %.1f)", untraced-traced, untraced, traced)
}

// minProbeFrames is the least number of requests one codec probe pass
// encodes, so per-pass reader set-up stays negligible on small workloads.
const minProbeFrames = 512

// cycleFrames rebuilds the frames of the workload's own traffic: every
// worker's sessions in visit order, one grant cycle each, repeated until a
// pass holds minProbeFrames requests. Responses carry what the daemon
// answers: authorized from Inform on while a target is uncontended, from
// Wait on where workers share a target. streams are the mux stream ids the
// sessions get, in the order the workload opens them.
func cycleFrames(in daemonInputs) (reqs []wire.Request, resps []wire.Response, streams []uint64) {
	_, waiting := arbiterShape(in)
	stream := make([]uint64, len(in.Sessions))
	opened := map[int]uint64{}
	for i, s := range in.Sessions {
		opened[s.Conn]++
		stream[i] = opened[s.Conn]
	}
	seq := make([]uint64, len(in.Sessions))
	verbs := []string{wire.TypeInform, wire.TypeWait, wire.TypeRelease, wire.TypeEnd}
	for len(reqs) < minProbeFrames {
		for _, visit := range in.Workers {
			for _, i := range visit {
				tgt := in.Sessions[i].Target
				for _, v := range verbs {
					seq[i]++
					reqs = append(reqs, wire.Request{Seq: seq[i], Type: v, Target: tgt})
					auth := v != wire.TypeEnd && (waiting == 0 || v != wire.TypeInform)
					resps = append(resps, wire.Response{Seq: seq[i], Type: wire.TypeResp, OK: true, Authorized: auth, Target: tgt})
					streams = append(streams, stream[i])
				}
			}
		}
	}
	return reqs, resps, streams
}

// wirebinProbe times the v3 mux codec on the frames: encode with
// AppendMuxRequest/AppendMuxResponse, decode with the mux readers. It
// checks that decoding returns what was encoded.
func wirebinProbe(r *result, reqs []wire.Request, resps []wire.Response, streams []uint64) (encNs, decNs, bytesPerFrame float64) {
	encode := func(reqBuf, respBuf []byte) ([]byte, []byte) {
		for i := range reqs {
			reqBuf, _ = wirebin.AppendMuxRequest(reqBuf, streams[i], &reqs[i])
			respBuf, _ = wirebin.AppendMuxResponse(respBuf, streams[i], &resps[i])
		}
		return reqBuf, respBuf
	}
	reqBuf, respBuf := encode(nil, nil)
	frames := 2 * len(reqs)
	ok := true
	rr, pr := wirebin.NewMuxRequestReader(bytes.NewReader(reqBuf)), wirebin.NewMuxResponseReader(bytes.NewReader(respBuf))
	for i := range reqs {
		var req wire.Request
		var resp wire.Response
		s1, err1 := rr.Read(&req)
		s2, err2 := pr.Read(&resp)
		ok = ok && err1 == nil && err2 == nil && s1 == streams[i] && s2 == streams[i] &&
			reflect.DeepEqual(req, reqs[i]) && reflect.DeepEqual(resp, resps[i])
	}
	r.check(ok, "wirebin round trip of the workload's frames differs")

	encNs = nsPerOp(func(n int) int {
		done := 0
		for ; done < n; done += frames {
			reqBuf, respBuf = encode(reqBuf[:0], respBuf[:0])
		}
		return done
	})
	var req wire.Request
	var resp wire.Response
	decNs = nsPerOp(func(n int) int {
		done := 0
		for ; done < n; done += frames {
			rr := wirebin.NewMuxRequestReader(bytes.NewReader(reqBuf))
			pr := wirebin.NewMuxResponseReader(bytes.NewReader(respBuf))
			for range reqs {
				rr.Read(&req)
				pr.Read(&resp)
			}
		}
		return done
	})
	return encNs, decNs, float64(len(reqBuf)+len(respBuf)) / float64(frames)
}

// jsonProbe is wirebinProbe for the v1 JSON codec's readers and writers.
func jsonProbe(r *result, reqs []wire.Request, resps []wire.Response) (encNs, decNs, bytesPerFrame float64) {
	var reqBuf, respBuf bytes.Buffer
	encode := func() {
		reqBuf.Reset()
		respBuf.Reset()
		rw, pw := wire.JSON.NewRequestWriter(&reqBuf), wire.JSON.NewResponseWriter(&respBuf)
		for i := range reqs {
			rw.Write(&reqs[i])
			pw.Write(&resps[i])
		}
	}
	encode()
	frames := 2 * len(reqs)
	ok := true
	rr := wire.JSON.NewRequestReader(bytes.NewReader(reqBuf.Bytes()))
	pr := wire.JSON.NewResponseReader(bytes.NewReader(respBuf.Bytes()))
	for i := range reqs {
		var req wire.Request
		var resp wire.Response
		err1, err2 := rr.Read(&req), pr.Read(&resp)
		ok = ok && err1 == nil && err2 == nil && reflect.DeepEqual(req, reqs[i]) && reflect.DeepEqual(resp, resps[i])
	}
	r.check(ok, "JSON round trip of the workload's frames differs")

	encNs = nsPerOp(func(n int) int {
		done := 0
		for ; done < n; done += frames {
			encode()
		}
		return done
	})
	decNs = nsPerOp(func(n int) int {
		done := 0
		for ; done < n; done += frames {
			rr := wire.JSON.NewRequestReader(bytes.NewReader(reqBuf.Bytes()))
			pr := wire.JSON.NewResponseReader(bytes.NewReader(respBuf.Bytes()))
			for range reqs {
				var req wire.Request
				var resp wire.Response
				rr.Read(&req)
				pr.Read(&resp)
			}
		}
		return done
	})
	return encNs, decNs, float64(reqBuf.Len()+respBuf.Len()) / float64(frames)
}

// arbiterShape returns the number of applications registered on the
// busiest target and how many of them can wait there at once (its workers
// less the one holding it).
func arbiterShape(in daemonInputs) (apps, waiting int) {
	sessions, workers := map[string]int{}, map[string]int{}
	for _, s := range in.Sessions {
		sessions[s.Target]++
	}
	for _, visit := range in.Workers {
		workers[in.Sessions[visit[0]].Target]++
	}
	for t, n := range sessions {
		apps = max(apps, n)
		waiting = max(waiting, workers[t]-1)
	}
	return apps, waiting
}

// arbitrateNs times Arbiter.Arbitrate on an arbiter configured as the
// daemon configures each shard's (indexed fcfs, 256-record decision log)
// and put in the workload's shape: one application active and authorized,
// waiting more queued behind it, the rest idle.
func arbitrateNs(apps, waiting int) float64 {
	ar := core.NewArbiter(core.FCFSPolicy{})
	ar.SetIndexed(true)
	ar.SetLogBound(256)
	states := make([]*core.AppState, apps)
	for i := range states {
		states[i], _ = ar.Register(appName(i), 1)
	}
	states[0].Inform(0)
	ar.Arbitrate(0)
	states[0].Activate()
	for i := 1; i <= waiting; i++ {
		states[i].Inform(float64(i))
	}
	now := float64(apps)
	return nsPerOp(func(n int) int {
		for i := 0; i < n; i++ {
			ar.Arbitrate(now)
		}
		return n
	})
}
