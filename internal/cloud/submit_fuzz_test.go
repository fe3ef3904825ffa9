package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// submitProfileCases are profile bodies and whether each must be rejected.
// They are FuzzSubmitProfile's seed corpus too:
// testdata/fuzz/FuzzSubmitProfile holds one file per case, named after it
// (TestSubmitProfileCorpus keeps the two in step).
var submitProfileCases = []struct {
	name    string
	input   string
	wantErr bool
}{
	{"valid", `{"spacing_m":5,"grade_rad":[0.01,-0.02],"var":[0.001,0.002]}`, false},
	{"unknown-field", `{"spacing_m":5,"grade_rad":[0.01],"var":[0.001],"road_id":"x"}`, false},
	{"steepest-grade", `{"spacing_m":2.5,"grade_rad":[0.8,-0.8],"var":[1e-9,1e9]}`, false},
	{"not-json", `{"spacing_m":5,`, true},
	{"trailing-bytes", `{"spacing_m":5,"grade_rad":[0.01],"var":[0.001]}x`, true},
	{"null", `null`, true},
	{"array", `[0.01]`, true},
	{"zero-spacing", `{"spacing_m":0,"grade_rad":[0.01],"var":[0.001]}`, true},
	{"spacing-overflow", `{"spacing_m":1e400,"grade_rad":[0.01],"var":[0.001]}`, true},
	{"empty-profile", `{"spacing_m":5,"grade_rad":[],"var":[]}`, true},
	{"length-mismatch", `{"spacing_m":5,"grade_rad":[0.01,0.02],"var":[0.001]}`, true},
	{"implausible-grade", `{"spacing_m":5,"grade_rad":[0.81],"var":[0.001]}`, true},
	{"zero-variance", `{"spacing_m":5,"grade_rad":[0.01],"var":[0]}`, true},
	{"string-grade", `{"spacing_m":5,"grade_rad":["0.01"],"var":[0.001]}`, true},
}

// postProfileBody sends body to path on h and returns the status, the
// response body and how far the request moved the store generation of s.
func postProfileBody(s *Server, h http.Handler, path string, body []byte) (int, []byte, uint64) {
	gen := s.StoreGeneration()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeJSON)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), s.StoreGeneration() - gen
}

// checkSubmitProfile sends input as the body of POST /v1/roads/{id}/profiles
// and, when it is valid JSON, as the profile of a one-item JSON batch, both
// to one road of a fresh server, and checks that the doors agree: nothing
// panics; the single door answers 202 exactly when the batch door accepts
// the item and 400 exactly when it answers 400; an accepted input raises the
// store generation by one and a rejected one leaves it alone. Bytes that are
// not JSON go to the single door only, which must answer 400. It returns
// whether the input was rejected.
func checkSubmitProfile(t *testing.T, input []byte) bool {
	t.Helper()
	s := NewServerWithShards(1)
	h := s.Handler()
	code, body, moved := postProfileBody(s, h, "/v1/roads/r/profiles", input)
	switch {
	case code == http.StatusAccepted && moved == 1:
	case code == http.StatusBadRequest && moved == 0:
	default:
		t.Fatalf("single door: HTTP %d moved the store generation by %d: %s", code, moved, body)
	}
	rejected := code == http.StatusBadRequest
	if !json.Valid(input) {
		if !rejected {
			t.Fatalf("single door accepted bytes that are not JSON")
		}
		return true
	}
	batch := append(append([]byte(`{"items":[{"road_id":"r","profile":`), input...), "}]}"...)
	code, body, moved = postProfileBody(s, h, "/v1/submit-batch", batch)
	if rejected {
		if code != http.StatusBadRequest || moved != 0 {
			t.Fatalf("single door answered 400, batch door HTTP %d and moved the store generation by %d: %s", code, moved, body)
		}
		return true
	}
	var resp batchResponseDTO
	if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK ||
		len(resp.Results) != 1 || resp.Results[0].Status != statusAccepted || moved != 1 {
		t.Fatalf("single door answered 202, batch door HTTP %d and moved the store generation by %d: %s", code, moved, body)
	}
	return false
}

// TestSubmitProfileCases runs the seed table through checkSubmitProfile.
func TestSubmitProfileCases(t *testing.T) {
	for _, tc := range submitProfileCases {
		t.Run(tc.name, func(t *testing.T) {
			if rejected := checkSubmitProfile(t, []byte(tc.input)); rejected != tc.wantErr {
				t.Errorf("rejected %v, want %v", rejected, tc.wantErr)
			}
		})
	}
}

// TestSubmitProfileCorpus checks every seed case has its corpus file, in
// the go test fuzz v1 encoding of its input.
func TestSubmitProfileCorpus(t *testing.T) {
	for _, tc := range submitProfileCases {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSubmitProfile", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzSubmitProfile drives arbitrary bytes through both submit doors as one
// profile.
func FuzzSubmitProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		checkSubmitProfile(t, input)
	})
}
