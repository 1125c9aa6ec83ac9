package service

// The versioned API error schema. Every non-2xx body the service emits
// is one envelope:
//
//	{"schema_version": 1,
//	 "error": {"code": "quota_exceeded",
//	           "message": "tenant \"alice\" exceeded max_queued (8)",
//	           "retry_after_sec": 1,
//	           "details": {"tenant": "alice", "quota": "max_queued", "limit": "8"}}}
//
// Code is the stable machine-readable contract — callers switch on it;
// Message is for humans and may change between releases. The service
// layer itself keeps returning plain sentinel-wrapped errors; the HTTP
// layer owns the mapping to (status, code).

import (
	"errors"
	"maps"
	"net/http"
)

// SchemaVersion is the wire-schema version stamped on every error
// envelope and statsz payload. Version 2 dropped the deprecated flat
// statsz keys that version 1 mirrored alongside the nested sections.
const SchemaVersion = 2

// Stable machine-readable error codes.
const (
	CodeInvalidSpec        = "invalid_spec"
	CodeQuotaExceeded      = "quota_exceeded"
	CodeQueueFull          = "queue_full"
	CodeNotFound           = "not_found"
	CodeUnauthorized       = "unauthorized"
	CodePayloadTooLarge    = "payload_too_large"
	CodeTraceStoreDisabled = "trace_store_disabled"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodeInternal           = "internal"
)

// APIError is the error object inside the envelope.
type APIError struct {
	Code          string            `json:"code"`
	Message       string            `json:"message"`
	RetryAfterSec int               `json:"retry_after_sec,omitempty"`
	Details       map[string]string `json:"details,omitempty"`
}

// ErrorEnvelope is the full non-2xx response body.
type ErrorEnvelope struct {
	SchemaVersion int      `json:"schema_version"`
	Error         APIError `json:"error"`
}

// detailedError decorates a sentinel-wrapped error with machine-
// readable details for the envelope.
type detailedError struct {
	err     error
	details map[string]string
}

func (d *detailedError) Error() string { return d.err.Error() }
func (d *detailedError) Unwrap() error { return d.err }

// withDetails attaches key/value detail pairs to an error; the HTTP
// layer surfaces them in the envelope's details map.
func withDetails(err error, details map[string]string) error {
	return &detailedError{err: err, details: details}
}

// httpStatus maps a service error to its (status code, error code,
// retry-after) triple. Unrecognized errors are internal 500s.
func httpStatus(err error) (status int, code string, retryAfterSec int) {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeInvalidSpec, 0
	case errors.Is(err, ErrNoSuchJob):
		return http.StatusNotFound, CodeNotFound, 0
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized, CodeUnauthorized, 0
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, CodeQuotaExceeded, 1
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable, CodeQueueFull, 1
	case errors.Is(err, ErrPayloadTooLarge):
		return http.StatusRequestEntityTooLarge, CodePayloadTooLarge, 0
	case errors.Is(err, ErrTraceStoreDisabled):
		return http.StatusNotImplemented, CodeTraceStoreDisabled, 0
	default:
		return http.StatusInternalServerError, CodeInternal, 0
	}
}

// envelope renders a service error as its wire representation.
func envelope(err error) (int, ErrorEnvelope) {
	status, code, retry := httpStatus(err)
	e := ErrorEnvelope{
		SchemaVersion: SchemaVersion,
		Error: APIError{
			Code:          code,
			Message:       err.Error(),
			RetryAfterSec: retry,
		},
	}
	var det *detailedError
	if errors.As(err, &det) {
		e.Error.Details = maps.Clone(det.details)
	}
	return status, e
}
