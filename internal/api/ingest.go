package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro"
	"repro/internal/jobs"
	"repro/internal/model"
)

// RatingInput is one rating of an append batch. The client supplies the
// timestamp: the server never stamps time, so replaying the write-ahead
// log is deterministic.
type RatingInput struct {
	UserID int   `json:"user_id"`
	ItemID int   `json:"item_id"`
	Score  int   `json:"score"`
	Unix   int64 `json:"unix"`
}

// AppendRequest is the POST /api/v1/ratings body: one batch of new
// ratings, applied all-or-nothing.
type AppendRequest struct {
	// Dataset selects the mounted dataset ("" = the default mount).
	Dataset string        `json:"dataset,omitempty"`
	Ratings []RatingInput `json:"ratings"`
}

// AppendResponse is the 202 payload: the epoch the batch was accepted
// at. Reads pinned at this epoch (or later) observe the batch; reads
// pinned earlier never do.
type AppendResponse struct {
	Epoch    uint64 `json:"epoch"`
	Accepted int    `json:"accepted"`
}

// appender is the optional write-path interface a mounted engine may
// implement; a Miner without it answers the ingest-disabled envelope, as
// does an engine whose write path EnableIngest never armed.
type appender interface {
	AppendRatings(ctx context.Context, ratings []model.Rating) (uint64, error)
}

// handleAppend is POST /api/v1/ratings: validate the batch, admit it
// through the job queue (writes share the same admission control as
// async mining — a full queue answers 429 with Retry-After), apply it,
// and answer 202 with the assigned epoch. The batch is WAL-durable
// before the response is written.
func (h *Handler) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "appending ratings requires POST")
		return
	}
	var req AppendRequest
	if err := decodeBody(r, &req); err != nil {
		decodeFail(w, err)
		return
	}
	if len(req.Ratings) == 0 {
		decodeFail(w, badRequestf("empty ratings batch"))
		return
	}
	eng, ok := h.resolveEngine(w, r, req.Dataset)
	if !ok {
		return
	}
	app, ok := eng.(appender)
	if !ok {
		writeError(w, maprat.ErrIngestDisabled)
		return
	}
	ratings := make([]model.Rating, len(req.Ratings))
	for i, in := range req.Ratings {
		ratings[i] = model.Rating{UserID: in.UserID, ItemID: in.ItemID, Score: in.Score, Unix: in.Unix}
	}
	j, err := h.jobs.Submit("append", func(ctx context.Context, _ func(jobs.Progress)) (any, error) {
		epoch, err := app.AppendRatings(ctx, ratings)
		if err != nil {
			return nil, err
		}
		return &AppendResponse{Epoch: epoch, Accepted: len(ratings)}, nil
	})
	if err != nil {
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSeconds()))
		writeEnvelope(w, CodeQueueFull, err.Error())
		return
	}
	// The handler waits for the apply synchronously — the 202 must carry
	// the assigned epoch — but the job keeps running if the client
	// disconnects: an admitted batch is never half-abandoned.
	wake, unsub := j.Subscribe()
	defer unsub()
	for {
		s := j.Snapshot()
		if s.State.Terminal() {
			if s.Err != nil {
				writeError(w, s.Err)
				return
			}
			resp, _ := s.Result.(*AppendResponse)
			if resp == nil {
				writeEnvelope(w, CodeInternal, "append job returned no result")
				return
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				writeEnvelope(w, CodeInternal, "encoding response: "+err.Error())
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write(buf.Bytes())
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			// The client went away; the admitted batch still applies (and
			// is WAL-durable once it does). Nothing useful to write.
			return
		}
	}
}
