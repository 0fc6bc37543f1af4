package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/internal/jobs"
)

// JobSubmitRequest is the POST /api/v1/jobs body: one of the five mining
// pipelines named by Op, plus the exact knob set the corresponding
// synchronous endpoint accepts (the shared Params decoder).
type JobSubmitRequest struct {
	// Op selects the pipeline: explain, group, refine, drill, evolution.
	Op string `json:"op"`
	Params
}

// JobProgress is the wire form of a job's latest solver progress.
type JobProgress = jobs.Progress

// JobStatus is the job resource every /api/v1/jobs endpoint returns:
// identity, lifecycle state, timestamps, latest progress, and — once the
// job is done — the result payload, byte-identical to what the
// synchronous endpoint would have answered.
type JobStatus struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	State string `json:"state"`
	// Created/Started/Finished are RFC 3339 with sub-second precision;
	// Started and Finished are absent until the job reaches them.
	Created  string       `json:"created"`
	Started  string       `json:"started,omitempty"`
	Finished string       `json:"finished,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`
	// Error carries the failure for failed/canceled jobs, in the same
	// code vocabulary as the synchronous error envelope.
	Error *ErrorBody `json:"error,omitempty"`
	// Result is the pipeline's response document (ExplainResponse,
	// GroupResponse, ...), present only when State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// jobStatusDTO converts a jobs snapshot to the wire shape. withResult
// lets the SSE stream omit the (potentially large) result document —
// stream consumers fetch it once via GET when the terminal event lands.
func (h *Handler) jobStatusDTO(s jobs.Snapshot, withResult bool) *JobStatus {
	st := &JobStatus{
		ID:      s.ID,
		Op:      s.Kind,
		State:   string(s.State),
		Created: s.Created.UTC().Format(time.RFC3339Nano),
	}
	if !s.Started.IsZero() {
		st.Started = s.Started.UTC().Format(time.RFC3339Nano)
	}
	if !s.Finished.IsZero() {
		st.Finished = s.Finished.UTC().Format(time.RFC3339Nano)
	}
	if s.HasProgress {
		p := s.Progress
		st.Progress = &p
	}
	if s.Err != nil {
		st.Error = errorBodyFor(s.Err)
	}
	if withResult && s.State == jobs.Done && s.Result != nil {
		raw, err := json.Marshal(s.Result)
		if err != nil {
			st.Error = &ErrorBody{Code: CodeInternal, Message: "encoding result: " + err.Error()}
		} else {
			st.Result = raw
		}
	}
	return st
}

// jobFn validates a submit request eagerly — bad parameters must fail
// the POST with 400, not surface minutes later as a failed job — and
// returns the closure the worker pool executes against eng (the dataset
// resolved at submit time, so a job's dataset cannot drift while it sits
// in the queue). The progress callback is threaded into
// Settings.Progress, so restart completions inside core.SolveRHE surface
// as job progress events.
func (h *Handler) jobFn(eng maprat.Miner, req JobSubmitRequest) (jobs.Fn, error) {
	p := req.Params
	wire := func(er *maprat.ExplainRequest, report func(jobs.Progress)) {
		er.Settings.Progress = func(done, total int) {
			report(jobs.Progress{Done: done, Total: total})
		}
	}
	switch req.Op {
	case "explain":
		er, err := p.ExplainRequest()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
			wire(&er, report)
			ex, err := eng.ExplainContext(ctx, er)
			if err != nil {
				return nil, err
			}
			return explainDTO(ex), nil
		}, nil
	case "group":
		er, err := p.ExplainRequest()
		if err != nil {
			return nil, err
		}
		key, err := p.GroupKey()
		if err != nil {
			return nil, err
		}
		buckets, err := p.TimelineBuckets()
		if err != nil {
			return nil, err
		}
		limit, err := p.RefineLimit()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
			ge, err := eng.ExploreFullContext(ctx, er.Query, key, buckets, limit)
			if err != nil {
				return nil, err
			}
			return groupResponseDTO(er.Query.String(), ge), nil
		}, nil
	case "refine":
		er, err := p.ExplainRequest()
		if err != nil {
			return nil, err
		}
		key, err := p.GroupKey()
		if err != nil {
			return nil, err
		}
		limit, err := p.RefineLimit()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
			refs, err := eng.RefineGroupContext(ctx, er.Query, key, limit)
			if err != nil {
				return nil, err
			}
			return &RefinementsResponse{
				Query:       er.Query.String(),
				Key:         key.Param(),
				Refinements: refinementDTOs(refs),
			}, nil
		}, nil
	case "drill":
		er, err := p.ExplainRequest()
		if err != nil {
			return nil, err
		}
		key, err := p.GroupKey()
		if err != nil {
			return nil, err
		}
		task, err := p.DrillTask()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
			wire(&er, report)
			tr, err := eng.DrillMineContext(ctx, er.Query, key, task, er.Settings)
			if err != nil {
				return nil, err
			}
			return &DrillResponse{
				Query:  er.Query.String(),
				Parent: key.Param(),
				Result: taskResultDTO(*tr),
			}, nil
		}, nil
	case "evolution":
		er, err := p.ExplainRequest()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
			wire(&er, report)
			points, err := eng.EvolutionContext(ctx, er)
			if err != nil {
				return nil, err
			}
			return evolutionDTO(er.Query.String(), points), nil
		}, nil
	default:
		return nil, badRequestf("bad op %q (want explain, group, refine, drill or evolution)", req.Op)
	}
}

// handleJobs is the collection endpoint: POST submits a job, everything
// else answers 405.
func (h *Handler) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "job submission requires POST")
		return
	}
	var req JobSubmitRequest
	if err := decodeBody(r, &req); err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, req.Params.Dataset)
	if !ok {
		return
	}
	fn, err := h.jobFn(eng, req)
	if err != nil {
		decodeFail(w, err)
		return
	}
	j, err := h.jobs.Submit(req.Op, fn)
	if err != nil {
		// Both rejection causes mean "try again later": a full queue
		// clears as workers finish, a closing server is restarting.
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSeconds()))
		writeEnvelope(w, CodeQueueFull, err.Error())
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	var buf []byte
	if buf, err = json.Marshal(h.jobStatusDTO(j.Snapshot(), false)); err == nil {
		_, _ = w.Write(append(buf, '\n'))
	}
}

// retryAfterSeconds estimates how soon a rejected submit is worth
// retrying: one pessimistic job's worth of queue drain, bounded to keep
// the hint useful. It reads the manager's effective config — the raw
// h.cfg.Jobs may hold zeros the constructor defaulted away.
func (h *Handler) retryAfterSeconds() int {
	secs := int(h.jobs.Config().JobTimeout / (4 * time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// jobFromPath resolves the {id} path segment, answering 404 itself when
// the job is unknown (never submitted, or retention expired).
func (h *Handler) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := h.jobs.Get(id)
	if !ok {
		writeEnvelope(w, CodeJobNotFound, fmt.Sprintf("no job %q (unknown, or its result retention expired)", id))
		return nil, false
	}
	return j, true
}

// handleJob is the item endpoint: GET polls status (the result rides
// along once done), DELETE cancels.
func (h *Handler) handleJob(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		j, ok := h.jobFromPath(w, r)
		if !ok {
			return
		}
		WriteJSON(w, h.jobStatusDTO(j.Snapshot(), true))
	case http.MethodDelete:
		id := r.PathValue("id")
		j, ok := h.jobs.Cancel(id)
		if j == nil {
			writeEnvelope(w, CodeJobNotFound, fmt.Sprintf("no job %q (unknown, or its result retention expired)", id))
			return
		}
		// ok==false means the job was already terminal: canceling is
		// idempotent, the current state is the honest answer either way.
		_ = ok
		WriteJSON(w, h.jobStatusDTO(j.Snapshot(), false))
	default:
		methodNotAllowed(w, "GET, DELETE", "method "+r.Method+" not allowed (use GET or DELETE)")
	}
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events:
//
//	event: state     — lifecycle transitions (queued, running)
//	event: progress  — restart completions, coalesced per consumer
//	event: done|failed|canceled — terminal, with the job status (sans
//	                   result; fetch it via GET) as data; the stream ends
//
// Progress is lossy by design (a slow consumer skips intermediate
// points); the terminal event is never lost.
func (h *Handler) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet, "the event stream requires GET")
		return
	}
	j, ok := h.jobFromPath(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeEnvelope(w, CodeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	wake, unsub := j.Subscribe()
	defer unsub()

	seq := 0
	emit := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, event, data)
		seq++
		fl.Flush()
	}

	var lastVersion uint64
	var lastState jobs.State
	var lastProg jobs.Progress
	first, progSeen := true, false
	for {
		s := j.Snapshot()
		if first || s.Version != lastVersion {
			lastVersion = s.Version
			if (first || s.State != lastState) && !s.State.Terminal() {
				emit("state", h.jobStatusDTO(s, false))
				lastState = s.State
			}
			if s.HasProgress && (!progSeen || s.Progress != lastProg) {
				emit("progress", s.Progress)
				lastProg, progSeen = s.Progress, true
			}
			if s.State.Terminal() {
				emit(string(s.State), h.jobStatusDTO(s, false))
				return
			}
			first = false
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
