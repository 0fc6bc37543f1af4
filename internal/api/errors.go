package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro"
)

// ErrorCode is the machine-readable failure classification every v1 error
// response carries. Clients dispatch on the code; the message is for
// humans and carries no contract.
type ErrorCode string

// The complete v1 error vocabulary. The mining codes are derived from
// the engine's sentinel errors (ErrNoItems, ErrNoRatings, ErrNoGroup)
// and the request lifecycle (context deadline / cancellation); anything
// else out of a pipeline is an internal mining failure. The two routing
// codes cover requests that never reached a pipeline, so a client can
// tell "fix your parameters" from "this endpoint/method does not exist".
const (
	CodeBadRequest ErrorCode = "bad_request"
	CodeNoItems    ErrorCode = "no_items"
	CodeNoRatings  ErrorCode = "no_ratings"
	CodeNoGroup    ErrorCode = "no_group"
	CodeTimeout    ErrorCode = "timeout"
	CodeCanceled   ErrorCode = "canceled"
	CodeInternal   ErrorCode = "internal"
	// Routing failures.
	CodeNotFound         ErrorCode = "not_found"
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// Append admission: every pending-append slot is taken (the
	// response carries Retry-After).
	CodeQueueFull ErrorCode = "queue_full"
	// Multi-dataset serving: the request named a dataset that is not
	// mounted on this server.
	CodeDatasetNotFound ErrorCode = "dataset_not_found"
	// Live ingestion: the engine's write path was never armed (the
	// server runs without -wal). 503; clients route writes elsewhere.
	CodeUnavailable ErrorCode = "unavailable"
)

// ErrorBody is the inner error object.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// ErrorEnvelope is the single structured error shape every v1 endpoint
// answers failures with: {"error": {"code": ..., "message": ...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// CodeForError classifies any failure a v1 request can end in: the
// request errors Run reports before the pipeline starts (decode,
// validation, method, body size, dataset) and the pipeline's own.
func CodeForError(err error) ErrorCode {
	var (
		bad      *badRequestError
		tooLarge *tooLargeError
		method   *methodError
		dataset  *datasetError
	)
	switch {
	case errors.As(err, &bad), errors.As(err, &tooLarge):
		return CodeBadRequest
	case errors.As(err, &method):
		return CodeMethodNotAllowed
	case errors.As(err, &dataset):
		return CodeDatasetNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, maprat.ErrNoItems):
		return CodeNoItems
	case errors.Is(err, maprat.ErrNoRatings):
		return CodeNoRatings
	case errors.Is(err, maprat.ErrNoGroup):
		return CodeNoGroup
	// Live ingestion: a bad batch or a read pinned past the current epoch
	// is the client's to fix; an engine whose write path was never armed
	// answers 503 so clients route writes elsewhere.
	case errors.Is(err, maprat.ErrBadRating), errors.Is(err, maprat.ErrFutureEpoch):
		return CodeBadRequest
	case errors.Is(err, maprat.ErrIngestDisabled):
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// HTTPStatus maps a code to its response status. 499 is the nginx-style
// "client closed request" status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNoItems, CodeNoRatings, CodeNoGroup, CodeNotFound, CodeDatasetNotFound:
		return http.StatusNotFound
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeCanceled:
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// StatusForError is the one error→status mapping shared by the v1 surface
// and the HTML front-end: a bad knob is 400 (413 for an oversized body,
// 405 for a method the endpoint does not take), timeouts are the
// gateway's fault (504), disconnects get 499, and only the errors meaning
// "the client asked for something that doesn't exist" are 404s.
// Everything else is an internal mining failure and surfaces as a 500,
// never blamed on the client.
func StatusForError(err error) int {
	var tooLarge *tooLargeError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return CodeForError(err).HTTPStatus()
}

// writeError answers err with the v1 envelope: its code, its status, and
// the Allow header when the method was the problem.
func writeError(w http.ResponseWriter, err error) {
	var method *methodError
	if errors.As(err, &method) {
		w.Header().Set("Allow", method.allow)
	}
	writeEnvelopeStatus(w, StatusForError(err), CodeForError(err), err.Error())
}

// writeEnvelope writes a v1 error response with the code's own status.
func writeEnvelope(w http.ResponseWriter, code ErrorCode, msg string) {
	writeEnvelopeStatus(w, code.HTTPStatus(), code, msg)
}

// writeEnvelopeStatus writes the envelope. The envelope is tiny, so the
// encode cannot meaningfully fail after the header is out.
func writeEnvelopeStatus(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// methodNotAllowed answers 405 with the Allow header.
func methodNotAllowed(w http.ResponseWriter, allow, msg string) {
	writeError(w, &methodError{allow: allow, msg: msg})
}
