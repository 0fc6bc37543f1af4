package api

import (
	"context"
	"fmt"
	"net/http"

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

// maxPendingAppends bounds the append batches admitted at once: one
// applies while the rest wait on the engine's single-writer semaphore.
// A batch that finds every slot taken answers 429 instead of queueing
// without limit.
const maxPendingAppends = 32

// handleAppend is POST /api/v1/ratings: validate the batch, admit it
// (a full admission bound answers 429 with Retry-After), apply it, and
// answer 202 with the assigned epoch. The batch is WAL-durable before
// the response is written.
func (h *Handler) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "appending ratings requires POST")
		return
	}
	var req AppendRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Ratings) == 0 {
		writeError(w, badRequestf("empty ratings batch"))
		return
	}
	m, err := h.resolve(r, req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	ratings := make([]model.Rating, len(req.Ratings))
	for i, in := range req.Ratings {
		ratings[i] = model.Rating{UserID: in.UserID, ItemID: in.ItemID, Score: in.Score, Unix: in.Unix}
	}
	select {
	case h.appendSlots <- struct{}{}:
		defer func() { <-h.appendSlots }()
	default:
		// An admitted batch costs about one fsync, so a slot frees soon.
		w.Header().Set("Retry-After", "1")
		writeEnvelope(w, CodeQueueFull, fmt.Sprintf("%d append batches already pending", maxPendingAppends))
		return
	}
	// An admitted batch applies even if the client disconnects: the WAL
	// write and the in-memory apply are all-or-nothing either way.
	epoch, err := m.Engine.AppendRatings(context.WithoutCancel(r.Context()), ratings)
	if err != nil {
		writeError(w, err)
		return
	}
	body, err := encodeJSON(&AppendResponse{Epoch: epoch, Accepted: len(ratings)})
	if err != nil {
		writeEnvelope(w, CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(body)
}
