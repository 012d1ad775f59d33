// Package backend implements the OddCI Backend: the component
// "responsible for managing particular activities of each running
// application ... scheduling, provision of input data, as well as
// gathering and, possibly, post-processing of the output generated by
// the parallel application" (§3.1).
//
// It is a bag-of-tasks scheduler in the voluntary-computing style the
// paper's prototype used: workers running inside DVEs pull tasks over
// their direct channels, execute them, and push results back. Leases
// make the system churn-tolerant: a task whose node disappears is
// re-dispatched when its lease expires.
//
// The dispatch path is built for large pools: tasks are striped across
// shards by an integer {jobID,taskID} key, each shard pairs a ring-buffer
// ready queue with a lease-expiry min-heap, and per-task slot counters
// replace whole-queue scans, so HandleRequest and HandleResult from
// thousands of concurrent worker connections contend only per stripe and
// run in O(1)/O(log n) per call.
package backend

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// Wire message types exchanged with workers. Sizes on the wire are the
// task's s and r; the envelope overheads below cover the rest.
type (
	// TaskRequest asks for work. Trace is the requesting worker's span
	// context (zero on untraced hops).
	TaskRequest struct {
		NodeID uint64
		Trace  span.Context
	}
	// TaskAssign hands one task to a worker; its wire size is the
	// task's input size s, InputSize. Trace is the dispatch span's
	// context, so the worker's execution span parents under this
	// dispatch. Credential is the opaque result token the worker must
	// echo (nil when the deployment runs pre-credential).
	TaskAssign struct {
		JobID      int
		TaskID     int
		RefSeconds float64
		InputSize  int
		OutputSize int
		Payload    []byte
		Credential []byte
		Trace      span.Context
	}
	// NoTask tells a worker to back off (or go home when Done). The
	// Backend hands out two shared replies, one per value of Done, so
	// receivers read a NoTask and never write it.
	NoTask struct {
		RetryAfter time.Duration
		Done       bool
	}
	// TaskResult returns a task's output; its wire size is r. Trace is
	// the worker-side span context the commit span parents under.
	// Credential echoes the assignment's token; the Backend verifies it
	// before counting the vote (CredWarn/CredEnforce).
	TaskResult struct {
		NodeID     uint64
		JobID      int
		TaskID     int
		Payload    []byte
		Credential []byte
		Trace      span.Context
	}
)

// Wire overhead sizes in bytes.
const (
	RequestWireSize = 64
	NoTaskWireSize  = 32
	assignOverhead  = 64
	resultOverhead  = 64
)

// DispatchLatencyBuckets are the histogram bounds for the in-process
// dispatch latency (oddci_backend_dispatch_seconds): sub-microsecond to
// 100 ms, since HandleRequest is a lock-and-index operation, not I/O.
// The latency is measured on the injected Clock, never the host clock:
// under a frozen Sim clock every observation is exactly zero, so
// deterministic replays stay byte-identical instead of leaking host
// scheduling jitter into the telemetry snapshot.
var DispatchLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 1e-2, 0.1,
}

// LeaseSlack multiplies a task's reference time to form its lease.
const LeaseSlack = 4

// Config tunes the Backend.
type Config struct {
	Clock simtime.Clock
	// LeaseBase pads every lease (covers transfer time; default 2 min).
	LeaseBase time.Duration
	// RetryAfter is the back-off handed to idle workers (default 30 s).
	RetryAfter time.Duration
	// Replication runs every task on this many distinct nodes and
	// commits the majority result — the voluntary-computing defence
	// against faulty or malicious devices (default 1 = no redundancy).
	Replication int
	// maxReplicas caps conflict-driven extra dispatches per task
	// (default 2×Replication). Lease-expiry retries do not consume this
	// budget: an expired slot is refunded, so stragglers cannot force a
	// premature plurality commit.
	maxReplicas int
	// shards is the number of scheduler stripes (rounded up to a power
	// of two, default 16). Each task is pinned to one stripe; worker
	// requests scan stripes starting at a node-hash offset, so
	// concurrent connections spread across locks.
	shards int
	// CredentialMode enables result credentials: every dispatch carries
	// an opaque token bound to (seq, node, job, task) that the worker
	// must echo with its result. CredWarn verifies and counts bad echoes
	// but accepts the vote (mixed-fleet migration); CredEnforce rejects
	// it and penalizes the sender's credibility. Default CredOff keeps
	// the pre-credential wire byte-identical.
	CredentialMode CredentialMode
	// CredentialSecret keys the credential MACs; generated when nil and
	// CredentialMode is on. Inject a seeded secret for deterministic
	// simulation runs.
	CredentialSecret []byte
	// quarantineBelow is the credibility floor in milli-credits (full
	// trust = 1000): a node whose score falls below it is quarantined —
	// leases revoked, excluded from dispatch, votes dropped. 0 selects
	// the default (300); negative disables quarantine while keeping the
	// scores.
	quarantineBelow int64
	// TrackCredibility arms per-node credibility scoring even when
	// Replication and CredentialMode alone would not (scores only move
	// on conflicts and credential rejections, so arming it on an honest
	// deployment is free — the bench sweep gates on exactly that).
	TrackCredibility bool
	// Obs, if set, receives live telemetry (oddci_backend_* metrics:
	// dispatch/completion counters, queue-depth and lease-heap gauges,
	// and the dispatch latency histogram).
	Obs *obs.Registry
	// Spans, if set, records dispatch, lease-expiry and commit spans —
	// parented under the requesting worker's propagated context, so one
	// task's scheduling history joins the wakeup trace. Lease-expiry
	// evidence is force-recorded even on traces that lost the sampling
	// draw.
	Spans *span.Collector
}

func (c *Config) fill() error {
	if c.Clock == nil {
		return errors.New("backend: clock is required")
	}
	if c.LeaseBase <= 0 {
		c.LeaseBase = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 30 * time.Second
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.maxReplicas < c.Replication {
		c.maxReplicas = 2 * c.Replication
	}
	if c.shards <= 0 {
		c.shards = 16
	}
	if c.CredentialMode < CredOff || c.CredentialMode > CredEnforce {
		return errors.New("backend: unknown credential mode")
	}
	if c.quarantineBelow == 0 {
		c.quarantineBelow = defaultQuarantineBelow
	} else if c.quarantineBelow < 0 {
		c.quarantineBelow = 0 // scores tracked, quarantine disabled
	}
	// Round the stripe count up to a power of two so shard selection is
	// a mask, not a modulo.
	n := 1
	for n < c.shards {
		n *= 2
	}
	c.shards = n
	return nil
}

// quorum is the majority threshold for committing a result.
func (c *Config) quorum() int { return c.Replication/2 + 1 }

// JobHandle tracks one submitted job.
type JobHandle struct {
	ID  int
	Job *workload.Job

	mu         sync.Mutex
	submitted  time.Time
	completed  time.Time
	done       bool
	results    map[int][]byte
	redispatch int
	// onDone callbacks fire once, at completion.
	onDone []func(at time.Time)
}

// SubmittedAt returns the submission time.
func (h *JobHandle) SubmittedAt() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.submitted
}

// Done reports completion and its time.
func (h *JobHandle) Done() (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.completed, h.done
}

// Makespan returns completion − submission, valid once Done.
func (h *JobHandle) Makespan() (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		return 0, false
	}
	return h.completed.Sub(h.submitted), true
}

// Redispatches counts lease-expiry re-dispatches (churn accounting).
func (h *JobHandle) Redispatches() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.redispatch
}

// Results returns the collected result payloads by task ID.
func (h *JobHandle) Results() map[int][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int][]byte, len(h.results))
	for k, v := range h.results {
		out[k] = v
	}
	return out
}

// OnComplete registers fn to run at completion (immediately if already
// complete).
func (h *JobHandle) OnComplete(fn func(at time.Time)) {
	h.mu.Lock()
	if h.done {
		at := h.completed
		h.mu.Unlock()
		fn(at)
		return
	}
	h.onDone = append(h.onDone, fn)
	h.mu.Unlock()
}

type vote struct {
	node    uint64
	payload []byte
	// weight is the holder's credibility score snapshotted at vote time
	// (credFullScore when tracking is off, so weighted sums reduce to
	// vote counts × credFullScore exactly).
	weight int64
}

// taskState is one task's scheduling state. Submit allocates a job's
// task states as one slab, and a task keeps its first lease and its
// first vote inline, so a task at Replication 1 never allocates after
// Submit; a second concurrent replica spills to outstanding and grows
// votes onto the heap.
type taskState struct {
	key  taskKey
	job  *JobHandle
	task *workload.Task
	// The nodes currently leased on this task and their lease deadlines:
	// the first in leaseNode/leaseAt while leased is set, the rest in
	// outstanding (nil until a second concurrent lease). Read and write
	// them through leaseOf, setLease, dropLease and leaseCount. The
	// shard's lease heap mirrors these entries; a heap entry is live only
	// while the deadline here still matches.
	leaseNode   uint64
	leaseAt     time.Time
	outstanding map[uint64]time.Time
	// votes starts on firstVote, so the first vote is stored inline.
	votes     []vote
	firstVote [1]vote
	// launched counts replica slots consumed against the maxReplicas
	// budget. A lease that expires is refunded (and tallied in retries
	// instead), so only slots that can still produce a vote are charged.
	launched   int
	retries    int // lease-expiry re-dispatches, accounted outside the budget
	queued     int // slots currently in the shard's ready queue
	leased     bool
	conflicted bool
	done       bool
	// credNode/credSeq and credSeqs hold the seq of the credential last
	// issued to each node for this task — the live bindings replay
	// detection checks against (bindSeq, issuedSeq, unbindSeq).
	credNode, credSeq uint64
	credSeqs          map[uint64]uint64
	// traceCtx remembers the latest dispatch span's context, so a
	// lease-expiry retry (observed long after the dispatch returned)
	// still parents under the dispatch that leased the lost slot.
	traceCtx span.Context
}

// eligible reports whether node n may take a slot of this task: it must
// not already hold a lease or have voted.
func (ts *taskState) eligible(n uint64) bool {
	if ts.done {
		return false
	}
	if _, leased := ts.leaseOf(n); leased {
		return false
	}
	for _, v := range ts.votes {
		if v.node == n {
			return false
		}
	}
	return true
}

// tally returns the payload with the highest weighted support, that
// weight, and the number of distinct payloads voted. Ties keep the
// earlier-voted payload (accumulation order, strict >), matching the
// unweighted tally's behavior for uniform weights.
func (ts *taskState) tally() (best []byte, bestW int64, distinct int) {
	if len(ts.votes) == 1 {
		// A lone vote is its own plurality; this is the loop's result
		// without its map, down to a zero weight leaving best unset.
		if v := ts.votes[0]; v.weight > 0 {
			return v.payload, v.weight, 1
		}
		return nil, 0, 1
	}
	sums := make(map[string]int64, len(ts.votes))
	for _, v := range ts.votes {
		k := string(v.payload)
		w, seen := sums[k]
		if !seen {
			distinct++
		}
		w += v.weight
		sums[k] = w
		if w > bestW {
			bestW = w
			best = v.payload
		}
	}
	return best, bestW, distinct
}

// leaseOf returns node n's lease deadline, if n holds a lease.
func (ts *taskState) leaseOf(n uint64) (time.Time, bool) {
	if ts.leased && ts.leaseNode == n {
		return ts.leaseAt, true
	}
	at, ok := ts.outstanding[n]
	return at, ok
}

// setLease records a lease for node n, which holds none (dispatch only
// leases an eligible node): in the inline slot if it is free, else in
// the spill map.
func (ts *taskState) setLease(n uint64, at time.Time) {
	if !ts.leased {
		ts.leaseNode, ts.leaseAt, ts.leased = n, at, true
		return
	}
	if ts.outstanding == nil {
		ts.outstanding = make(map[uint64]time.Time, 2)
	}
	ts.outstanding[n] = at
}

// dropLease releases node n's lease and reports whether n held one.
func (ts *taskState) dropLease(n uint64) bool {
	if ts.leased && ts.leaseNode == n {
		ts.leased = false
		return true
	}
	if _, held := ts.outstanding[n]; held {
		delete(ts.outstanding, n)
		return true
	}
	return false
}

// leaseCount returns the number of leases outstanding on the task.
func (ts *taskState) leaseCount() int {
	n := len(ts.outstanding)
	if ts.leased {
		n++
	}
	return n
}

// Backend is the job-side component.
type Backend struct {
	cfg Config

	shards    []*shard
	shardMask uint64

	jmu     sync.RWMutex // guards the job table
	jobs    map[int]*JobHandle
	nextJob int

	open     atomic.Int64 // tasks not yet committed, across jobs
	draining atomic.Bool

	// trust is the credibility/credential tracker, nil unless armed
	// (Replication > 1, CredentialMode on, or TrackCredibility). While
	// nil, every hot path is the pre-adversary code.
	trust *trustTracker

	// retry and done are the two NoTask replies, built once: RetryAfter
	// is fixed per Backend, so an empty dispatch allocates nothing. They
	// are shared by every worker and read-only.
	retry, done *NoTask

	// Completed counts committed tasks; Conflicts counts tasks whose
	// replicas disagreed; Unresolved counts tasks committed by plurality
	// after exhausting replicas. Updated atomically; read them only
	// after the system quiesces.
	Completed  int64
	Conflicts  int64
	Unresolved int64

	met backendMetrics
}

// backendMetrics bundles the Backend's telemetry handles (all nil and
// no-op when Config.Obs is unset).
type backendMetrics struct {
	dispatched  *obs.Counter
	completed   *obs.Counter
	retried     *obs.Counter
	requeued    *obs.Counter
	conflicts   *obs.Counter
	unresolved  *obs.Counter
	lateResults *obs.Counter
	dispatchLat *obs.Histogram

	// Adversary accounting (oddci_backend_byzantine_*).
	byzLosses      *obs.Counter
	byzQuarantines *obs.Counter
	byzVoteDropped *obs.Counter
	credMissing    *obs.Counter
	credForged     *obs.Counter
	credReplayed   *obs.Counter
	credRejected   *obs.Counter
}

// New builds a Backend.
func New(cfg Config) (*Backend, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	b := &Backend{
		cfg:       cfg,
		jobs:      make(map[int]*JobHandle),
		shards:    make([]*shard, cfg.shards),
		shardMask: uint64(cfg.shards - 1),
		retry:     &NoTask{RetryAfter: cfg.RetryAfter},
		done:      &NoTask{RetryAfter: cfg.RetryAfter, Done: true},
	}
	for i := range b.shards {
		b.shards[i] = &shard{active: make(map[taskKey]*taskState)}
	}
	if cfg.CredentialMode != CredOff {
		if len(b.cfg.CredentialSecret) == 0 {
			secret, err := generateCredentialSecret()
			if err != nil {
				return nil, err
			}
			b.cfg.CredentialSecret = secret
		}
		// One key schedule per stripe, not per token: every issue and
		// verify of a stripe's tasks already runs under its lock.
		for _, s := range b.shards {
			s.mac = hmac.New(sha256.New, b.cfg.CredentialSecret)
		}
	}
	if cfg.Replication > 1 || cfg.CredentialMode != CredOff || cfg.TrackCredibility {
		b.trust = newTrustTracker()
	}
	reg := cfg.Obs
	b.met = backendMetrics{
		dispatched:  reg.Counter("oddci_backend_tasks_dispatched_total", "Task slots handed to workers"),
		completed:   reg.Counter("oddci_backend_tasks_completed_total", "Tasks committed"),
		retried:     reg.Counter("oddci_backend_tasks_retried_total", "Lease-expiry re-dispatches"),
		requeued:    reg.Counter("oddci_backend_lease_requeues_total", "Expired-lease slots requeued (capped at the replica deficit)"),
		conflicts:   reg.Counter("oddci_backend_task_conflicts_total", "Tasks whose replicas disagreed"),
		unresolved:  reg.Counter("oddci_backend_tasks_unresolved_total", "Tasks committed by plurality after exhausting replicas"),
		lateResults: reg.Counter("oddci_backend_late_results_total", "Results dropped because their job had already finished and been released"),
		dispatchLat: reg.Histogram("oddci_backend_dispatch_seconds", "HandleRequest service latency", DispatchLatencyBuckets),

		byzLosses:      reg.Counter("oddci_backend_byzantine_vote_losses_total", "Votes on a losing payload at commit time"),
		byzQuarantines: reg.Counter("oddci_backend_byzantine_quarantines_total", "Nodes quarantined for falling below the credibility floor"),
		byzVoteDropped: reg.Counter("oddci_backend_byzantine_votes_dropped_total", "Votes dropped from quarantined nodes"),
		credMissing:    reg.Counter("oddci_backend_byzantine_cred_missing_total", "Results submitted without a credential (pre-credential nodes)"),
		credForged:     reg.Counter("oddci_backend_byzantine_cred_forged_total", "Results with a malformed or MAC-failing credential"),
		credReplayed:   reg.Counter("oddci_backend_byzantine_cred_replayed_total", "Results echoing a genuine credential for the wrong slot"),
		credRejected:   reg.Counter("oddci_backend_byzantine_cred_rejected_total", "Votes rejected in enforce mode over their credential"),
	}
	if reg != nil {
		reg.GaugeFunc("oddci_backend_quarantined_nodes", "Nodes currently quarantined", func() float64 {
			return float64(b.QuarantinedCount())
		})
		reg.GaugeFunc("oddci_backend_queue_depth", "Dispatchable task slots queued", func() float64 {
			return float64(b.queuedSlots())
		})
		reg.GaugeFunc("oddci_backend_tasks_open", "Tasks not yet committed, across jobs", func() float64 {
			return float64(b.open.Load())
		})
		reg.GaugeFunc("oddci_backend_lease_heap_size", "Lease-expiry heap entries (including lazily invalidated ones)", func() float64 {
			return float64(b.leaseHeapLen())
		})
		reg.GaugeFunc("oddci_backend_tasks_active", "Uncommitted tasks tracked by the scheduler", func() float64 {
			return float64(b.ActiveTasks())
		})
	}
	return b, nil
}

func (b *Backend) shardFor(k taskKey) *shard {
	return b.shards[k.hash()&b.shardMask]
}

// ActiveTasks returns the number of uncommitted tasks the scheduler
// tracks. Committed tasks are purged deterministically, so this returns
// to zero when all submitted jobs complete — even with straggler leases
// still outstanding.
func (b *Backend) ActiveTasks() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.active)
		s.mu.Unlock()
	}
	return n
}

// queuedSlots sums the ready-queue depth across shards (includes slots
// of already-committed tasks awaiting lazy removal).
func (b *Backend) queuedSlots() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += s.ready.len()
		s.mu.Unlock()
	}
	return n
}

// leaseHeapLen sums lease-heap entries across shards.
func (b *Backend) leaseHeapLen() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += s.leases.len()
		s.mu.Unlock()
	}
	return n
}

// SetDraining toggles wind-down mode: with no work left, workers are
// told to exit instead of backing off.
func (b *Backend) SetDraining(v bool) {
	b.draining.Store(v)
}

// Submit enqueues a job's tasks.
func (b *Backend) Submit(job *workload.Job) (*JobHandle, error) {
	if len(job.Tasks) == 0 {
		return nil, errors.New("backend: job has no tasks")
	}
	// Task IDs key leases and results, so they must be usable as map
	// keys: non-negative and unique. They need not be contiguous.
	seen := make(map[int]int, len(job.Tasks))
	for i := range job.Tasks {
		id := job.Tasks[i].ID
		if id < 0 {
			return nil, fmt.Errorf("backend: task %d has negative ID %d", i, id)
		}
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("backend: tasks %d and %d share ID %d", prev, i, id)
		}
		seen[id] = i
	}
	b.jmu.Lock()
	b.nextJob++
	h := &JobHandle{
		ID:        b.nextJob,
		Job:       job,
		submitted: b.cfg.Clock.Now(),
		results:   make(map[int][]byte, len(job.Tasks)),
	}
	b.jobs[h.ID] = h
	b.jmu.Unlock()

	// One slab of task states per job, so Submit allocates O(1) times
	// whatever the job's size.
	slab := make([]taskState, len(job.Tasks))
	end := make([]int, len(b.shards)) // per shard: its task count, then its bucket's bounds
	for i := range slab {
		ts := &slab[i]
		ts.key = taskKey{job: h.ID, task: job.Tasks[i].ID}
		ts.job, ts.task = h, &job.Tasks[i]
		ts.votes = ts.firstVote[:0]
		end[ts.key.hash()&b.shardMask]++
	}
	// Bucket tasks by shard so each stripe is locked once: every bucket
	// is sliced, in task order, from one array.
	pos := 0
	for si, n := range end {
		end[si], pos = pos, pos+n
	}
	order := make([]*taskState, len(slab))
	for i := range slab {
		si := slab[i].key.hash() & b.shardMask
		order[end[si]] = &slab[i]
		end[si]++
	}
	lo := 0
	for si, s := range b.shards {
		list := order[lo:end[si]]
		lo = end[si]
		if len(list) == 0 {
			continue
		}
		s.mu.Lock()
		for _, ts := range list {
			s.active[ts.key] = ts
			for r := 0; r < b.cfg.Replication; r++ {
				s.ready.pushBack(ts)
			}
			ts.queued = b.cfg.Replication
		}
		s.mu.Unlock()
	}
	b.open.Add(int64(len(job.Tasks)))
	return h, nil
}

// slotDeficitLocked reports whether task ts needs another dispatchable
// slot in flight: enough slots to engage Replication distinct nodes for
// its first wave, or — once votes exist — enough in-flight work for the
// current plurality to still reach quorum, within the replica budget.
// Called with ts's shard lock held.
func (b *Backend) slotDeficitLocked(ts *taskState) bool {
	inFlight := ts.leaseCount() + ts.queued
	if len(ts.votes)+inFlight < b.cfg.Replication {
		return true
	}
	if len(ts.votes) == 0 {
		return false
	}
	// In-flight slots are counted optimistically at full weight: an
	// unweighted deployment reduces to the old count arithmetic, and a
	// weighted one only tops up once the optimistic pipeline cannot
	// reach quorum.
	_, bestW, _ := ts.tally()
	if bestW+int64(inFlight)*credFullScore >= b.quorumWeight() {
		return false
	}
	return ts.launched+ts.queued < b.cfg.maxReplicas
}

// reclaimLocked harvests expired leases from s's heap at time now. Each
// expired lease is refunded against the replica budget and counted as a
// retry; the slot is requeued only if the task still has a replica
// deficit, so one reclaim pass over a task with several expired leases
// cannot inflate the in-flight count the quorum top-up math relies on.
// Called with s.mu held.
func (b *Backend) reclaimLocked(s *shard, now time.Time) {
	for {
		e, ok := s.leases.peek()
		if !ok || !now.After(e.at) {
			return
		}
		s.leases.popMin()
		ts := s.active[e.key]
		if ts == nil || ts.done {
			continue // task committed since; entry is stale
		}
		if dl, held := ts.leaseOf(e.node); !held || !dl.Equal(e.at) {
			continue // lease was answered or re-granted since; stale
		}
		ts.dropLease(e.node)
		ts.launched-- // refund: the slot never produced a vote
		ts.retries++
		b.met.retried.Inc()
		ts.job.mu.Lock()
		ts.job.redispatch++
		ts.job.mu.Unlock()
		requeued := false
		if b.slotDeficitLocked(ts) {
			s.ready.pushBack(ts)
			ts.queued++
			b.met.requeued.Inc()
			requeued = true
		}
		b.emitRetrySpan(ts, e.node, now, requeued)
	}
}

// emitRetrySpan records a lease-expiry retry under the dispatch that
// leased the lost slot. Retries are evidence: when the trace lost the
// head-based sampling draw (or the hop was untraced), the span is
// force-recorded anyway so /trace always explains a retried task.
func (b *Backend) emitRetrySpan(ts *taskState, node uint64, now time.Time, requeued bool) {
	if b.cfg.Spans == nil {
		return
	}
	detail := fmt.Sprintf("job=%d task=%d node=%d requeued=%t", ts.key.job, ts.key.task, node, requeued)
	if sp := b.cfg.Spans.Start(ts.traceCtx, "lease-expiry", "backend"); sp != nil {
		sp.SetRetry()
		sp.SetDetail(detail)
		sp.End()
		return
	}
	b.cfg.Spans.ForceRecord(span.Data{
		Trace:  ts.traceCtx.Trace,
		Parent: ts.traceCtx.Span,
		Name:   "lease-expiry",
		Node:   "backend",
		Detail: detail,
		Start:  now,
		End:    now,
		Retry:  true,
	})
}

// popLocked returns the next queued slot eligible for node n, skipping
// committed tasks (lazy removal) and preserving FIFO order for slots n
// cannot take. The slots it steps past collect in the shard's scratch
// slice, which is cleared once they are pushed back, so a dispatch that
// skips allocates nothing once the scratch has grown. Called with s.mu
// held.
func (s *shard) popLocked(n uint64) *taskState {
	var out *taskState
	skipped := s.skipped[:0]
	for s.ready.len() > 0 {
		ts := s.ready.popFront()
		ts.queued--
		if ts.done {
			continue
		}
		if ts.eligible(n) {
			out = ts
			break
		}
		skipped = append(skipped, ts)
	}
	for i := len(skipped) - 1; i >= 0; i-- {
		s.ready.pushFront(skipped[i])
		skipped[i].queued++
	}
	clear(skipped) // the scratch must not keep a finished job's slab alive
	s.skipped = skipped[:0]
	return out
}

// HandleRequest assigns work in response to a TaskRequest: a fresh
// *TaskAssign the caller may keep, or a shared *NoTask. It is the
// transport-agnostic scheduler entry that Serve adapts to netsim
// channels; it is HandleRequestInto with a nil assignment.
func (b *Backend) HandleRequest(req *TaskRequest) any {
	return b.HandleRequestInto(req, nil)
}

// HandleRequestInto is HandleRequest writing the assignment into a,
// which the caller owns and may reuse from one call to the next; it
// returns a, or a shared *NoTask and leaves a as it was. Every field of
// a is overwritten: Payload aliases the job's task input, which no one
// may modify, and the credential is minted into a.Credential's own
// buffer (allocated once, CredentialLen bytes), so the next call into a
// overwrites the token. A caller that keeps a token past that call
// copies it. A nil a draws a fresh assignment when there is work, so an
// empty dispatch allocates nothing either way.
func (b *Backend) HandleRequestInto(req *TaskRequest, a *TaskAssign) any {
	if b.met.dispatchLat == nil {
		return b.dispatch(req, a)
	}
	start := b.cfg.Clock.Now()
	reply := b.dispatch(req, a)
	elapsed := b.cfg.Clock.Now().Sub(start).Seconds()
	if req.Trace.Valid() && req.Trace.Sampled {
		// Exemplar: pin this latency sample's bucket to the trace that
		// produced it, so /varz links a slow bucket to its waterfall.
		b.met.dispatchLat.ObserveWithExemplar(elapsed, req.Trace.Trace.String())
	} else {
		b.met.dispatchLat.Observe(elapsed)
	}
	return reply
}

func (b *Backend) dispatch(req *TaskRequest, a *TaskAssign) any {
	now := b.cfg.Clock.Now()
	// Quarantined nodes keep polling but never receive work; the check
	// is a single atomic load until the first quarantine happens.
	if b.trust.quarantined(req.NodeID) {
		return b.noTask()
	}
	// Start at a node-hash stripe so concurrent workers spread across
	// shard locks; scan the rest only when the home stripe is empty.
	start := mix64(req.NodeID)
	for i := uint64(0); i < uint64(len(b.shards)); i++ {
		s := b.shards[(start+i)&b.shardMask]
		s.mu.Lock()
		b.reclaimLocked(s, now)
		ts := s.popLocked(req.NodeID)
		if ts == nil {
			s.mu.Unlock()
			continue
		}
		lease := time.Duration(ts.task.STBSeconds*LeaseSlack*float64(time.Second)) + b.cfg.LeaseBase
		deadline := now.Add(lease)
		ts.setLease(req.NodeID, deadline)
		s.leases.push(leaseEntry{at: deadline, key: ts.key, node: req.NodeID})
		ts.launched++
		var payload []byte
		if p, ok := ts.task.Payload.([]byte); ok {
			payload = p
		}
		if a == nil {
			a = new(TaskAssign)
		}
		a.JobID, a.TaskID = ts.job.ID, ts.task.ID
		a.RefSeconds = ts.task.STBSeconds
		a.InputSize, a.OutputSize = ts.task.InputBytes, ts.task.OutputBytes
		a.Payload, a.Credential, a.Trace = payload, a.Credential[:0], span.Context{}
		if b.cfg.CredentialMode != CredOff {
			a.Credential = s.issueCredentialLocked(ts, req.NodeID, b.trust.seq.Add(1), a.Credential)
		}
		sp := b.cfg.Spans.Start(req.Trace, "dispatch", "backend")
		if sp != nil {
			sp.SetDetail("job=%d task=%d node=%d retries=%d", ts.job.ID, ts.task.ID, req.NodeID, ts.retries)
			a.Trace = sp.Context()
			ts.traceCtx = a.Trace
		}
		s.mu.Unlock()
		sp.End()
		b.met.dispatched.Inc()
		return a
	}
	// An idle instance keeps polling: its lifetime is the Provider's
	// decision (reset), not the Backend's. Done is only signalled while
	// draining.
	return b.noTask()
}

// noTask returns the shared back-off reply, Done while draining with no
// task left open.
func (b *Backend) noTask() *NoTask {
	if b.draining.Load() && b.open.Load() == 0 {
		return b.done
	}
	return b.retry
}

// HandleResult records one replica's result (transport-agnostic, like
// HandleRequest). With Replication = 1 the first result commits; with
// redundancy, a majority of identical payloads commits, disagreements
// trigger extra replicas up to maxReplicas, and an exhausted task
// commits its plurality.
func (b *Backend) HandleResult(res *TaskResult) {
	// A quarantined node's submissions are dropped outright — exclusion
	// covers the result path, not just dispatch.
	if b.trust.quarantined(res.NodeID) {
		b.met.byzVoteDropped.Inc()
		return
	}
	b.jmu.RLock()
	h, ok := b.jobs[res.JobID]
	b.jmu.RUnlock()
	if !ok {
		// A straggler replica of a job that finished and was released
		// (or a job this Backend never had): no vote, no credibility.
		b.met.lateResults.Inc()
		return
	}
	// Snapshot the vote weight before the shard section: the tracker
	// lock and the shard locks never nest in either order.
	weight := b.voteWeight(res.NodeID)
	key := taskKey{job: res.JobID, task: res.TaskID}
	s := b.shardFor(key)
	s.mu.Lock()
	ts := s.active[key]
	if ts == nil || ts.done {
		// Late duplicate after commitment: the committed result won.
		s.mu.Unlock()
		return
	}
	if b.cfg.CredentialMode != CredOff {
		if verdict := s.verifyCredentialLocked(ts, res); verdict != credOK {
			switch verdict {
			case credMissing:
				b.met.credMissing.Inc()
			case credForged:
				b.met.credForged.Inc()
			case credReplayed:
				b.met.credReplayed.Inc()
			}
			if b.cfg.CredentialMode == CredEnforce {
				// Reject the vote and refund the slot like a lease
				// expiry, so the budget math stays sound and an honest
				// replica can take its place.
				b.met.credRejected.Inc()
				if ts.dropLease(res.NodeID) {
					ts.launched--
					ts.retries++
					b.met.retried.Inc()
					ts.job.mu.Lock()
					ts.job.redispatch++
					ts.job.mu.Unlock()
					if b.slotDeficitLocked(ts) {
						s.ready.pushBack(ts)
						ts.queued++
						b.met.requeued.Inc()
					}
				}
				s.mu.Unlock()
				b.penalizeRejection(res.NodeID)
				return
			}
		}
	}
	ts.dropLease(res.NodeID) // the heap entry invalidates lazily
	for _, v := range ts.votes {
		if v.node == res.NodeID {
			s.mu.Unlock()
			return // a node votes once
		}
	}
	ts.votes = append(ts.votes, vote{node: res.NodeID, payload: res.Payload, weight: weight})
	winner, bestW, distinct := ts.tally()
	if !ts.conflicted && distinct > 1 {
		ts.conflicted = true
		atomic.AddInt64(&b.Conflicts, 1)
		b.met.conflicts.Inc()
	}

	if bestW < b.quorumWeight() {
		// Quorum not reached yet. Can the in-flight pipeline still get
		// there, topping up with extra replicas within the budget?
		// In-flight slots count optimistically at full weight.
		inFlight := ts.leaseCount() + ts.queued
		for bestW+int64(inFlight)*credFullScore < b.quorumWeight() && ts.launched+ts.queued < b.cfg.maxReplicas {
			s.ready.pushBack(ts)
			ts.queued++
			inFlight++
		}
		if bestW+int64(inFlight)*credFullScore >= b.quorumWeight() {
			s.mu.Unlock()
			return // wait for more votes
		}
		// Budget exhausted and nothing useful in flight: commit the
		// plurality rather than wedge the job.
		atomic.AddInt64(&b.Unresolved, 1)
		b.met.unresolved.Inc()
	}

	ts.done = true
	// Purge deterministically: straggler leases in the heap and queued
	// slots in the ready queue invalidate lazily, so a committed task
	// never lingers in the active table.
	delete(s.active, key)
	votes, retries := len(ts.votes), ts.retries
	castVotes := ts.votes
	commitParent := res.Trace
	if !commitParent.Valid() {
		// Untraced worker hop (mixed-version interop): parent the
		// commit under the dispatch span instead of dropping it.
		commitParent = ts.traceCtx
	}
	s.mu.Unlock()
	// Settle credibility outside the shard lock: winners earn reward,
	// losers are penalized and possibly quarantined (which revokes
	// their leases across all shards).
	b.applyVerdicts(winner, castVotes)
	if sp := b.cfg.Spans.Start(commitParent, "commit", "backend"); sp != nil {
		sp.SetDetail("job=%d task=%d votes=%d retries=%d", res.JobID, res.TaskID, votes, retries)
		sp.End()
	}
	b.open.Add(-1)
	atomic.AddInt64(&b.Completed, 1)
	b.met.completed.Inc()
	now := b.cfg.Clock.Now()

	h.mu.Lock()
	h.results[res.TaskID] = winner
	complete := len(h.results) == len(h.Job.Tasks) && !h.done
	var cbs []func(time.Time)
	if complete {
		h.done = true
		h.completed = now
		cbs = h.onDone
		h.onDone = nil
	}
	h.mu.Unlock()
	if complete {
		// Release the job: the caller's handle keeps the results, and a
		// long-lived Backend keeps nothing of a finished job.
		b.jmu.Lock()
		delete(b.jobs, h.ID)
		b.jmu.Unlock()
	}
	for _, fn := range cbs {
		fn(now)
	}
}

// Serve runs the request loop for one worker's direct channel; the
// system wiring spawns one per dialled connection.
//
// Serve dispatches into LeaseSlack assignments of its own, one slot per
// assignment in turn, as the TCP session dispatches into its one. That
// is safe because the channel is FIFO, Serve is one goroutine, and a
// worker keeps at most LeaseSlack requests out and sends each result
// (which may alias the assignment's credential) before its next request:
// the request that draws the assignment reusing a slot was sent after
// the result of the slot's last task, so Serve has handled that result
// before it rewrites the slot.
func (b *Backend) Serve(ep *netsim.Endpoint) {
	a := new([LeaseSlack]TaskAssign)
	next := 0
	for {
		pkt, err := ep.Recv()
		if err != nil {
			return
		}
		switch m := pkt.Payload.(type) {
		case *TaskRequest:
			slot := &a[next]
			reply := b.HandleRequestInto(m, slot)
			size := NoTaskWireSize
			if reply == slot {
				size = assignOverhead + slot.InputSize
				next = (next + 1) % LeaseSlack
			}
			ep.Send(pkt.From, reply, size)
		case *TaskResult:
			b.HandleResult(m)
		}
	}
}
