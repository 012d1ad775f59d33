package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"

	"oddci/internal/appimage"
	"oddci/internal/span"
	"oddci/internal/transport"
)

// obsOverheadLimit is the tracing overhead gate: with a collector
// attached but the head-based sampler saying no (SampleRate < 0), the
// task hand-off hot path must stay within this fraction of the
// untraced baseline — i.e. sampled-off tracing is noise, not a tax.
const obsOverheadLimit = 0.02

// obsBenchResult is one row of BENCH_obs.json.
type obsBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// OverheadFrac is only set on the summary row: sampled-off ns/op
	// relative to the untraced baseline, minus one.
	OverheadFrac float64 `json:"overhead_frac,omitempty"`
}

// benchTaskHandoff measures one full hand-off per op — request, assign,
// result — over real loopback TCP against a coordinator carrying the
// given span collector (nil for the untraced baseline). The client
// speaks the wire directly, mirroring the node's fast path (prebuilt
// request frame, reused buffers, each result written together with the
// next request), so the measured loop contains exactly the frames under
// test in the cadence RunNode ships. testing.Benchmark's alloc counters
// are process-wide, so both sides of each hand-off are in the numbers.
func benchTaskHandoff(spans *span.Collector, failed *atomic.Bool) func(b *testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			fmt.Fprintln(os.Stderr, "obs bench:", err)
			failed.Store(true)
		}
		coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
			Listen: "127.0.0.1:0",
			Name:   "bench",
			Image:  &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w", Payload: make([]byte, 32<<10)},
			Spans:  spans,
		})
		if err != nil {
			fail(err)
			return
		}
		defer coord.Close()
		go coord.Serve()
		// Keep a floor of backlog beyond b.N so the dispatcher never
		// comes up empty mid-measurement.
		const floor = 10_000
		for left := b.N + 1 + floor; left > 0; left -= 100_000 {
			if _, err := coord.Backend().Submit(backendJob(min(left, 100_000))); err != nil {
				fail(err)
				return
			}
		}
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			fail(err)
			return
		}
		defer conn.Close()
		fr := transport.NewFrameReader(conn)
		defer fr.Close()
		bw := bufio.NewWriterSize(conn, 4<<10)
		hello, err := json.Marshal(&transport.Hello{Wire: transport.WireVersion, NodeID: 1})
		if err != nil {
			fail(err)
			return
		}
		if t, _, err := fr.Next(); err != nil || t != transport.FrameBanner {
			fail(fmt.Errorf("banner: type %d, %v", t, err))
			return
		}
		if err := transport.WriteFrame(bw, transport.FrameHello, hello); err != nil {
			fail(err)
			return
		}
		reqFrame := transport.BeginFrame(nil, transport.FrameTaskRequest)
		reqFrame = transport.AppendTaskRequest(reqFrame, &transport.TaskRequestMsg{NodeID: 1})
		if reqFrame, err = transport.EndFrame(reqFrame, 0); err != nil {
			fail(err)
			return
		}
		var wbuf []byte
		var assign transport.TaskAssignMsg
		// handoff reads the assignment the last write asked for, then
		// writes its result and the next request in one flush.
		handoff := func() error {
			t, payload, err := fr.Next()
			for err == nil && t != transport.FrameTaskAssign && t != transport.FrameNoTask {
				t, payload, err = fr.Next() // the staged broadcast, ahead of the first reply
			}
			if err != nil {
				return err
			}
			if t == transport.FrameNoTask {
				return fmt.Errorf("no task with backlog pending")
			}
			if err := transport.DecodeTaskAssign(payload, &assign); err != nil {
				return err
			}
			res := transport.TaskResultMsg{NodeID: 1, JobID: assign.JobID, TaskID: assign.TaskID}
			wbuf = transport.BeginFrame(wbuf[:0], transport.FrameTaskResult)
			wbuf = transport.AppendTaskResult(wbuf, &res)
			if wbuf, err = transport.EndFrame(wbuf, 0); err != nil {
				return err
			}
			wbuf = append(wbuf, reqFrame...)
			if _, err := bw.Write(wbuf); err != nil {
				return err
			}
			return bw.Flush()
		}
		// The first request travels alone, behind the hello; one untimed
		// hand-off then drains the staged broadcast.
		if _, err := bw.Write(reqFrame); err != nil {
			fail(err)
			return
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		if err := handoff(); err != nil {
			fail(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := handoff(); err != nil {
				fail(err)
				return
			}
		}
	}
}

// oneRound runs the hand-off benchmark once against a coordinator
// carrying the given collector.
func oneRound(spans *span.Collector) (obsBenchResult, error) {
	var failed atomic.Bool
	r := testing.Benchmark(benchTaskHandoff(spans, &failed))
	if failed.Load() {
		return obsBenchResult{}, fmt.Errorf("obs bench: measurement invalidated")
	}
	if r.N == 0 || r.T <= 0 {
		return obsBenchResult{}, fmt.Errorf("obs bench: no iterations recorded")
	}
	return obsBenchResult{
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

// keepMin folds one round into the running best. A loopback hand-off
// is an ~11 µs syscall round trip, so single rounds wander by several
// percent; min-of-K converges on the true floor, and the caller
// interleaves baseline and sampled-off rounds so clock drift and
// thermal state hit both sides equally.
func keepMin(best *obsBenchResult, r obsBenchResult) {
	if best.Iterations == 0 || r.NsPerOp < best.NsPerOp {
		*best = r
	}
}

// sweepObs measures the tracing overhead gate: the task hand-off with a
// sampled-off collector versus the untraced baseline, in one
// process. Writes BENCH_obs.json (or -out) and fails when the
// sampled-off path regresses past obsOverheadLimit.
func sweepObs(w *csv.Writer, outPath string) error {
	if err := w.Write([]string{"bench", "iterations", "ns_per_op", "allocs_per_op", "overhead_frac"}); err != nil {
		return err
	}
	// Sampled-off: the collector is live, but every head-based draw
	// loses — the hot path pays only the nil-span
	// checks, which is the deployment default worth guarding.
	offSpans := span.NewCollector(span.Config{Capacity: 4096, SampleRate: -1})
	const rounds = 6
	var base, off obsBenchResult
	for i := 0; i < rounds; i++ {
		r, err := oneRound(nil)
		if err != nil {
			return err
		}
		keepMin(&base, r)
		r, err = oneRound(offSpans)
		if err != nil {
			return err
		}
		keepMin(&off, r)
	}
	base.Name = "task_handoff_untraced"
	off.Name = "task_handoff_sampled_off"

	overhead := off.NsPerOp/base.NsPerOp - 1
	summary := obsBenchResult{Name: "overhead", OverheadFrac: overhead}
	results := []obsBenchResult{base, off, summary}
	for _, res := range results {
		if err := w.Write([]string{res.Name, fmt.Sprintf("%d", res.Iterations),
			f(res.NsPerOp), fmt.Sprintf("%d", res.AllocsPerOp), f(res.OverheadFrac)}); err != nil {
			return err
		}
	}
	if off.AllocsPerOp > base.AllocsPerOp {
		return fmt.Errorf("sampled-off tracing allocates on the hot path: %d allocs/op vs %d untraced",
			off.AllocsPerOp, base.AllocsPerOp)
	}
	if overhead > obsOverheadLimit {
		return fmt.Errorf("sampled-off tracing overhead %.2f%% exceeds the %.0f%% gate (%.1f ns/op vs %.1f ns/op)",
			overhead*100, obsOverheadLimit*100, off.NsPerOp, base.NsPerOp)
	}

	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	return os.WriteFile(outPath, blob, 0o644)
}
