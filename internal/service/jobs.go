package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphstudy/internal/core"
)

// JobState tracks a job through its lifecycle.
type JobState int32

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	}
	return fmt.Sprintf("JobState(%d)", int32(s))
}

// Job is one admitted run request. Deduplicated requests share a single Job:
// the waiters count records how many clients are attached. A job's Result is
// readable only after Done() is closed.
type Job struct {
	ID      string
	Key     Key
	Spec    core.RunSpec
	Created time.Time

	state   atomic.Int32
	waiters atomic.Int64
	done    chan struct{}

	// Set before done is closed; immutable afterwards.
	result   core.Result
	cacheHit bool
	// TracePath is the Chrome trace JSON persisted for this job's run, when
	// the server runs in profiling mode (Config.TraceDir). Empty otherwise.
	TracePath string
}

func newJob(id string, key Key, spec core.RunSpec) *Job {
	j := &Job{ID: id, Key: key, Spec: spec, Created: time.Now(), done: make(chan struct{})}
	j.waiters.Store(1)
	return j
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return JobState(j.state.Load()) }

// Done returns a channel closed when the job has a result.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the run result and whether it was served from cache. It
// must only be called after Done() is closed.
func (j *Job) Result() (core.Result, bool) { return j.result, j.cacheHit }

// complete publishes the result and wakes all waiters.
func (j *Job) complete(res core.Result, cacheHit bool) {
	j.result = res
	j.cacheHit = cacheHit
	j.state.Store(int32(JobDone))
	close(j.done)
}

// jobStore owns job identity and request deduplication. It keeps two
// indexes: byID for GET /v1/jobs/{id}, and inflight — the singleflight
// table — mapping a canonical Key to the not-yet-finished job executing it.
// A second identical request admitted while the first is queued or running
// attaches to the same job instead of consuming another queue slot.
type jobStore struct {
	mu       sync.Mutex
	seq      atomic.Uint64
	byID     map[string]*Job
	ordered  []*Job // admission order, for retention trimming
	inflight map[Key]*Job
	retain   int // completed jobs kept for /v1/jobs lookups
}

func newJobStore(retain int) *jobStore {
	return &jobStore{
		byID:     map[string]*Job{},
		inflight: map[Key]*Job{},
		retain:   retain,
	}
}

// getOrCreate returns the inflight job for key, or creates and registers a
// new one. The second return is true when the caller attached to an
// existing job (a dedup hit).
func (s *jobStore) getOrCreate(key Key, spec core.RunSpec) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.inflight[key]; ok {
		j.waiters.Add(1)
		return j, true
	}
	j := s.registerLocked(key, spec)
	s.inflight[key] = j
	return j, false
}

// create registers a new job that never enters the singleflight table: a
// request served from the result cache, which nothing may attach to.
func (s *jobStore) create(key Key, spec core.RunSpec) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(key, spec)
}

// registerLocked gives a new job its ID and makes it visible to lookups.
func (s *jobStore) registerLocked(key Key, spec core.RunSpec) *Job {
	id := fmt.Sprintf("job-%d", s.seq.Add(1))
	j := newJob(id, key, spec)
	s.byID[id] = j
	s.ordered = append(s.ordered, j)
	s.trimLocked()
	return j
}

// abandon removes a job that was created but never admitted to the queue
// (admission rejected it), so a retry is not deduplicated onto a corpse.
func (s *jobStore) abandon(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	delete(s.byID, j.ID)
	for i, o := range s.ordered {
		if o == j {
			s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
			break
		}
	}
}

// settle removes the job from the singleflight table; later identical
// requests may hit the result cache instead. The job stays in byID until
// retention trims it.
func (s *jobStore) settle(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
}

// get looks a job up by ID.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// trimLocked drops the oldest completed jobs beyond the retention bound so
// the store cannot grow without limit under sustained traffic. Unfinished
// jobs are never dropped.
func (s *jobStore) trimLocked() {
	if s.retain <= 0 {
		return
	}
	for len(s.ordered) > s.retain {
		dropped := false
		for i, j := range s.ordered {
			if j.State() != JobDone {
				continue
			}
			delete(s.byID, j.ID)
			s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
			dropped = true
			break
		}
		if !dropped {
			return // everything outstanding; nothing is safe to trim
		}
	}
}
