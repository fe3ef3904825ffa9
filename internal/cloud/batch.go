package cloud

// POST /v1/submit-batch: many profile submissions in one request, with
// per-item outcomes. The request body is either the JSON form
//
//	{"items":[{"road_id":"r","key":"k","profile":{"spacing_m":5,...}}, ...]}
//
// (Content-Type: application/json) or the compact binary codec of codec.go
// (Content-Type: application/x-roadgrade-batch). Either form may be
// compressed with Content-Encoding: gzip. The response is always JSON —
//
//	{"results":[{"status":"accepted"}, {"status":"shed"}, ...]}
//
// index-aligned with the request items — gzipped when the client accepts it.
// Statuses: accepted, duplicate (idempotency-key replay), rejected (invalid
// for this road, e.g. spacing mismatch; carries an error), shed (admission
// control dropped it; retry after Retry-After). A response with any shed
// item is a 429; otherwise 200.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"

	"roadgrade/internal/obs"
)

// batchRequestDTO is the JSON wire form of a batch.
type batchRequestDTO struct {
	Items []batchItemDTO `json:"items"`
}

// batchItemDTO is one JSON batch entry.
type batchItemDTO struct {
	RoadID  string     `json:"road_id"`
	Key     string     `json:"key,omitempty"`
	Device  string     `json:"device,omitempty"`
	Profile ProfileDTO `json:"profile"`
}

// batchResponseDTO is the JSON response body.
type batchResponseDTO struct {
	Results []BatchItemResult `json:"results"`
}

// maxBatchBodyBytes caps a batch request body (pre- and post-decompression):
// 4096 items × a few km of road each fits comfortably.
const maxBatchBodyBytes = 64 << 20

// gzipWriterPool recycles response compressors.
var gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// readBody slurps the request body into a pooled buffer, transparently
// decompressing a gzip Content-Encoding and bounding both the wire and the
// decompressed size; either overflow is an *http.MaxBytesError, and a
// declared Content-Length past the cap is one before any byte is read. The
// buffer grows by doubling with the bytes actually read, never from the
// declared length (a client may declare the cap and send nothing), and its
// capacity never passes maxBytes+bytes.MinRead. The caller must hand buf
// back through putBodyBuf.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) (*bytes.Buffer, error) {
	if r.ContentLength > maxBytes {
		return nil, &http.MaxBytesError{Limit: maxBytes}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	var src io.Reader = r.Body
	switch enc := r.Header.Get("Content-Encoding"); enc {
	case "", "identity":
	case "gzip":
		gz, err := gzip.NewReader(r.Body)
		if err != nil {
			return nil, fmt.Errorf("gzip body: %w", err)
		}
		defer gz.Close()
		// A tiny wire body can inflate without bound; cap the decompressed
		// size too. LimitReader+1 so overflow is detectable.
		src = io.LimitReader(gz, maxBytes+1)
	default:
		return nil, fmt.Errorf("%w %q", errUnsupportedEncoding, enc)
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	limit := int(maxBytes) + bytes.MinRead
	for {
		if buf.Available() < bytes.MinRead {
			growBody(buf, min(max(buf.Cap(), bytes.MinRead), limit-buf.Cap()))
		}
		p := buf.AvailableBuffer()
		n, err := src.Read(p[:cap(p)])
		buf.Write(p[:n])
		switch {
		case int64(buf.Len()) > maxBytes:
			// The same error the wire cap gives, so both overflows answer
			// 413, even when the stream is also corrupt past the cap.
			putBodyBuf(buf)
			return nil, &http.MaxBytesError{Limit: maxBytes}
		case err == io.EOF:
			return buf, nil
		case err != nil:
			putBodyBuf(buf)
			return nil, err
		}
	}
}

// growBody gives buf room for n more bytes, allocating exactly that much:
// bytes.Buffer's own growth doubles and rounds up to an allocation size
// class, so it can take a body at the cap to a buffer twice the cap.
func growBody(buf *bytes.Buffer, n int) {
	if buf.Available() >= n {
		return
	}
	b := make([]byte, buf.Len(), buf.Len()+n)
	copy(b, buf.Bytes())
	*buf = *bytes.NewBuffer(b)
}

// putBodyBuf returns a body buffer to bodyBufPool, unless it is larger than
// a single-profile body can need: a batch body's buffer must not pin up to
// 64 MiB in the pool.
func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxSubmitBodyBytes {
		bodyBufPool.Put(buf)
	}
}

// acceptsGzip reports whether the client advertised gzip support.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// readBodyError answers a readBody failure: 413 past the door's cap, 415
// for an unknown Content-Encoding, 400 otherwise. what prefixes the message
// with the door's payload.
func readBodyError(w http.ResponseWriter, err error, what string) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	} else if errors.Is(err, errUnsupportedEncoding) {
		code = http.StatusUnsupportedMediaType
	}
	httpError(w, code, fmt.Errorf("%s: %w", what, err))
}

// obsBatchItems counts the batch door's items by outcome,
// cloud_batch_items_total{status=...}.
var obsBatchItems = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter, 4)
	for _, status := range []string{statusAccepted, statusDuplicate, statusRejected, statusShed} {
		m[status] = obs.Default.Counter("cloud_batch_items_total", obs.L("status", status))
	}
	return m
}()

// handleSubmitBatch is the batched ingest door. With a coalescer the items
// queue for their shards' workers; without one each folds inline as a
// one-item pass.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	buf, err := readBody(w, r, maxBatchBodyBytes)
	if err != nil {
		readBodyError(w, err, "reading batch")
		return
	}
	defer putBodyBuf(buf)

	items, err := decodeBatch(r.Header.Get("Content-Type"), buf.Bytes())
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errUnsupportedMedia) {
			code = http.StatusUnsupportedMediaType
		}
		httpError(w, code, err)
		return
	}
	if len(items) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("cloud: empty batch"))
		return
	}

	pend := make([]pendingItem, len(items))
	shed := 0
	if s.coal != nil {
		// The handler span's context (set by instrument) crosses the queue
		// boundary on each item; the fold span links back to it.
		sc, _ := obs.SpanContextFrom(r.Context())
		var done sync.WaitGroup
		done.Add(len(items))
		for i := range items {
			pend[i] = pendingItem{BatchItem: items[i], done: &done, sc: sc}
		}
		shed = s.enqueue(pend)
		done.Wait()
	} else {
		for i := range items {
			pend[i].BatchItem = items[i]
			s.foldOne(&pend[i])
		}
	}
	results := make([]BatchItemResult, len(pend))
	for i := range pend {
		results[i] = pend[i].res
		obsBatchItems[results[i].Status].Inc()
	}

	code := http.StatusOK
	if shed > 0 {
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	}
	writeBatchResponse(w, r, code, batchResponseDTO{Results: results})
}

// errUnsupportedMedia marks an unknown batch Content-Type (→ 415).
var errUnsupportedMedia = errors.New("cloud: unsupported batch content type")

// errUnsupportedEncoding marks an unknown request Content-Encoding (→ 415).
var errUnsupportedEncoding = errors.New("cloud: unsupported Content-Encoding")

// decodeBatch dispatches on Content-Type and returns validated submissions.
func decodeBatch(contentType string, body []byte) ([]BatchItem, error) {
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	switch mt {
	case ContentTypeBinary:
		return DecodeBatchBinary(body)
	case ContentTypeJSON, "":
		var dto batchRequestDTO
		if err := json.Unmarshal(body, &dto); err != nil {
			return nil, fmt.Errorf("decoding batch: %w", err)
		}
		if len(dto.Items) > maxBatchItems {
			return nil, fmt.Errorf("cloud: batch too large (%d items, max %d)", len(dto.Items), maxBatchItems)
		}
		items := make([]BatchItem, len(dto.Items))
		for i := range dto.Items {
			if dto.Items[i].RoadID == "" {
				return nil, fmt.Errorf("cloud: batch item %d: empty road id", i)
			}
			if len(dto.Items[i].Key) > maxKeyLen {
				return nil, fmt.Errorf("cloud: batch item %d: idempotency key too long", i)
			}
			if err := validDeviceID(dto.Items[i].Device); err != nil {
				return nil, fmt.Errorf("cloud: batch item %d: %w", i, err)
			}
			p, err := dto.Items[i].Profile.toProfile()
			if err != nil {
				return nil, fmt.Errorf("cloud: batch item %d: %w", i, err)
			}
			items[i] = BatchItem{RoadID: dto.Items[i].RoadID, Key: dto.Items[i].Key, Device: dto.Items[i].Device, Profile: p}
		}
		return items, nil
	default:
		return nil, fmt.Errorf("%w %q", errUnsupportedMedia, contentType)
	}
}

// writeBatchResponse encodes the per-item results, gzipping when the client
// accepts it (batch responses grow with the batch, so compression pays).
func writeBatchResponse(w http.ResponseWriter, r *http.Request, code int, body batchResponseDTO) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(code)
	gz := gzipWriterPool.Get().(*gzip.Writer)
	gz.Reset(w)
	_ = json.NewEncoder(gz).Encode(body)
	_ = gz.Close()
	gzipWriterPool.Put(gz)
}
