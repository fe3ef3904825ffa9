package cloud

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// gzipMember compresses b as one gzip member at the best compression.
func gzipMember(b []byte) []byte {
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		panic(err)
	}
	if _, err := gz.Write(b); err != nil {
		panic(err)
	}
	if err := gz.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// gzipBodyCase is a gzip request body and the status each submit door must
// answer it with.
type gzipBodyCase struct {
	name                  string
	input                 []byte
	wantSingle, wantBatch int
}

// gzipBodyCases are FuzzGzipBody's seed corpus:
// testdata/fuzz/FuzzGzipBody holds one file per case, named after it
// (TestGzipBodyCorpus keeps the two in step). They are built on first use,
// since one inflates past the single-profile cap.
var gzipBodyCases = sync.OnceValue(func() []gzipBodyCase {
	profile := `{"spacing_m":5,"grade_rad":[0.01,-0.02],"var":[0.001,0.002]}`
	batch := `{"items":[{"road_id":"r1","profile":` + profile + `},{"road_id":"r2","key":"k","profile":` + profile + `}]}`
	valid := gzipMember([]byte(profile))
	// The trailer is the CRC-32 of the inflated bytes, then their length.
	badCRC := slices.Clone(valid)
	badCRC[len(badCRC)-8] ^= 0xff
	return []gzipBodyCase{
		{"profile", valid, http.StatusAccepted, http.StatusBadRequest},
		{"json-batch", gzipMember([]byte(batch)), http.StatusBadRequest, http.StatusOK},
		{"binary-batch", gzipMember(wireV2), http.StatusBadRequest, http.StatusOK},
		{"truncated", valid[:len(valid)/2], http.StatusBadRequest, http.StatusBadRequest},
		{"bad-crc", badCRC, http.StatusBadRequest, http.StatusBadRequest},
		// A reader takes concatenated members as one stream.
		{"two-members", append(gzipMember([]byte(profile[:20])), gzipMember([]byte(profile[20:]))...),
			http.StatusAccepted, http.StatusBadRequest},
		{"inflates-past-single-cap", gzipMember([]byte(profile + strings.Repeat(" ", maxSubmitBodyBytes+1-len(profile)))),
			http.StatusRequestEntityTooLarge, http.StatusBadRequest},
		{"not-gzip", []byte(profile), http.StatusBadRequest, http.StatusBadRequest},
	}
})

// inflatedSize returns how many bytes body inflates to before a gzip error,
// counting at most limit+1, and whether they start with the binary batch
// magic.
func inflatedSize(body []byte, limit int64) (n int64, binary bool) {
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	head := make([]byte, len(binaryMagic))
	k, _ := io.ReadFull(gz, head)
	rest, _ := io.Copy(io.Discard, io.LimitReader(gz, limit+1-int64(k)))
	return int64(k) + rest, k == len(head) && string(head) == binaryMagic
}

// checkGzipBody sends input as a gzip-encoded body to both submit doors of
// a fresh server — POST /v1/roads/{id}/profiles, and POST /v1/submit-batch
// as a binary batch when the inflated bytes start with its magic, JSON
// otherwise — and checks what every body must hold: nothing panics; the
// single door answers 202, 400, 413 or 415 and the batch door 200, 400,
// 413 or 415; a door answers 413 exactly when the body's wire or inflated
// size passes its cap; a rejected body leaves the store generation
// unchanged, and an accepted one moves it by the number of items accepted.
// It returns the two doors' statuses.
func checkGzipBody(t *testing.T, input []byte) (single, batch int) {
	t.Helper()
	s := NewServerWithShards(1)
	h := s.Handler()
	inflated, binary := inflatedSize(input, maxBatchBodyBytes)
	post := func(path, contentType string) (int, []byte, uint64) {
		gen := s.StoreGeneration()
		req := httptest.NewRequest("POST", path, bytes.NewReader(input))
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Content-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), s.StoreGeneration() - gen
	}
	overCap := func(max int64) bool { return int64(len(input)) > max || inflated > max }

	single, body, moved := post("/v1/roads/r/profiles", ContentTypeJSON)
	if (single == http.StatusRequestEntityTooLarge) != overCap(maxSubmitBodyBytes) {
		t.Fatalf("single door: HTTP %d for a body inflating to %d bytes (cap %d): %s", single, inflated, maxSubmitBodyBytes, body)
	}
	switch {
	case single == http.StatusAccepted && moved == 1:
	case (single == http.StatusBadRequest || single == http.StatusRequestEntityTooLarge ||
		single == http.StatusUnsupportedMediaType) && moved == 0:
	default:
		t.Fatalf("single door: HTTP %d moved the store generation by %d: %s", single, moved, body)
	}

	contentType := ContentTypeJSON
	if binary {
		contentType = ContentTypeBinary
	}
	batch, body, moved = post("/v1/submit-batch", contentType)
	if (batch == http.StatusRequestEntityTooLarge) != overCap(maxBatchBodyBytes) {
		t.Fatalf("batch door: HTTP %d for a body inflating to %d bytes (cap %d): %s", batch, inflated, maxBatchBodyBytes, body)
	}
	switch batch {
	case http.StatusOK:
		var resp batchResponseDTO
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("batch door: decoding the response: %v", err)
		}
		accepted := uint64(0)
		for _, r := range resp.Results {
			if r.Status == statusAccepted {
				accepted++
			}
		}
		if moved != accepted {
			t.Fatalf("batch door: %d items accepted moved the store generation by %d", accepted, moved)
		}
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
		if moved != 0 {
			t.Fatalf("batch door: HTTP %d moved the store generation by %d: %s", batch, moved, body)
		}
	default:
		t.Fatalf("batch door: HTTP %d: %s", batch, body)
	}
	return single, batch
}

// TestGzipBodyCases runs the seed table through checkGzipBody.
func TestGzipBodyCases(t *testing.T) {
	for _, tc := range gzipBodyCases() {
		t.Run(tc.name, func(t *testing.T) {
			single, batch := checkGzipBody(t, tc.input)
			if single != tc.wantSingle || batch != tc.wantBatch {
				t.Errorf("single door HTTP %d, batch door HTTP %d; want %d and %d", single, batch, tc.wantSingle, tc.wantBatch)
			}
		})
	}
}

// TestGzipBodyCorpus checks every seed case has its corpus file, in the go
// test fuzz v1 encoding of its input.
func TestGzipBodyCorpus(t *testing.T) {
	for _, tc := range gzipBodyCases() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzGzipBody", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file (%d bytes, %v) differs from the case's encoding (%d bytes)", tc.name, len(got), err, len(want))
		}
	}
}

// FuzzGzipBody drives arbitrary bytes, sent as gzip-encoded bodies, through
// both submit doors.
func FuzzGzipBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		checkGzipBody(t, input)
	})
}
