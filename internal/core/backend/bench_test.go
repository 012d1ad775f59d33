package backend

import (
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// benchJob builds one n-task job with trivial payloads.
func benchJob(tb testing.TB, n int) *workload.Job {
	tb.Helper()
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = workload.Task{ID: i, InputBytes: 64, OutputBytes: 32, STBSeconds: 1}
	}
	return &workload.Job{Name: "bench", Tasks: tasks}
}

// benchBackend builds a real-clock backend with n tasks queued.
func benchBackend(b *testing.B, tasks int) *Backend {
	b.Helper()
	be, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	submitted := 0
	for submitted < tasks {
		n := tasks - submitted
		if n > 100_000 {
			n = 100_000
		}
		if _, err := be.Submit(benchJob(b, n)); err != nil {
			b.Fatal(err)
		}
		submitted += n
	}
	return be
}

// BenchmarkHandleRequestParallel measures the dispatch path under
// concurrent workers against a backlog that never drops below 10k
// pending tasks — the regime where the pre-indexed scheduler's
// O(pending) scan and head-of-slice removal dominated.
func BenchmarkHandleRequestParallel(b *testing.B) {
	const floor = 10_000
	be := benchBackend(b, b.N+floor)
	var nodeSeq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		node := nodeSeq.Add(1)
		for pb.Next() {
			if _, ok := be.HandleRequest(&TaskRequest{NodeID: node}).(*TaskAssign); !ok {
				b.Error("dispatch starved with pending backlog")
				return
			}
		}
	})
}

// BenchmarkHandleResultParallel measures the result-commit path: every
// task is pre-assigned, then results stream back concurrently.
func BenchmarkHandleResultParallel(b *testing.B) {
	be := benchBackend(b, b.N)
	assigns := make([]*TaskAssign, 0, b.N)
	for i := 0; i < b.N; i++ {
		a, ok := be.HandleRequest(&TaskRequest{NodeID: uint64(i%4096 + 1)}).(*TaskAssign)
		if !ok {
			b.Fatal("setup dispatch starved")
		}
		assigns = append(assigns, a)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1) - 1
			a := assigns[i]
			be.HandleResult(&TaskResult{NodeID: uint64(i%4096 + 1), JobID: a.JobID,
				TaskID: a.TaskID, Payload: []byte("r")})
		}
	})
}

// BenchmarkEndToEndThroughput100k measures whole request→result task
// round-trips against 100k-task jobs: the scheduler's end-to-end
// throughput, for ad-hoc use (the tracked numbers are the repository
// benchmark's backend.dispatch_ns and backend.commit_ns).
func BenchmarkEndToEndThroughput100k(b *testing.B) {
	be := benchBackend(b, ((b.N/100_000)+1)*100_000)
	var nodeSeq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		node := nodeSeq.Add(1)
		for pb.Next() {
			a, ok := be.HandleRequest(&TaskRequest{NodeID: node}).(*TaskAssign)
			if !ok {
				b.Error("dispatch starved")
				return
			}
			be.HandleResult(&TaskResult{NodeID: node, JobID: a.JobID, TaskID: a.TaskID,
				Payload: []byte("r")})
		}
	})
}
