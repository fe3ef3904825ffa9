package cloud

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// wireItem hand-assembles one batch item of the given format version: the
// road id, key and (from version 2) device fields, the spacing's bits, the
// cell count, then the zigzag-varint deltas of the quantized grades and
// variances.
func wireItem(version byte, roadID, key, device string, spacing float64, gradeQ, varQ []int64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(roadID)))
	b = append(b, roadID...)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	if version >= 2 {
		b = binary.AppendUvarint(b, uint64(len(device)))
		b = append(b, device...)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(spacing))
	b = binary.AppendUvarint(b, uint64(len(gradeQ)))
	for _, qs := range [][]int64{gradeQ, varQ} {
		prev := int64(0)
		for _, q := range qs {
			b = binary.AppendUvarint(b, zigzag(q-prev))
			prev = q
		}
	}
	return b
}

// wireBatch prefixes items with the magic, the version and the item count.
func wireBatch(version byte, items ...[]byte) []byte {
	b := append([]byte(binaryMagic), version)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = append(b, it...)
	}
	return b
}

var (
	wireV2 = wireBatch(2,
		wireItem(2, "st-0-1", "k1", "ph-1", 5, []int64{10e6, 12e6, -3e6}, []int64{1e8, 1e8, 2e8}),
		wireItem(2, "st-1-0", "", "", 5, []int64{0}, []int64{1}),
	)
	wireV1 = wireBatch(1, wireItem(1, "st-0-1", "k2", "", 5, []int64{-4e6, 0}, []int64{5e7, 5e7}))
)

// batchBinaryCases are DecodeBatchBinary inputs and whether each must be
// rejected. They are FuzzDecodeBatchBinary's seed corpus too:
// testdata/fuzz/FuzzDecodeBatchBinary holds one file per case, named after
// it (TestDecodeBatchBinaryCorpus keeps the two in step).
var batchBinaryCases = []struct {
	name    string
	input   []byte
	wantErr bool
}{
	{"v2-batch", wireV2, false},
	{"v1-batch", wireV1, false},
	// binary.Uvarint takes a non-minimal varint; re-encoding writes the
	// minimal form, which decodes to the same items.
	{"non-minimal-varint", append([]byte("RGB\x02\x81\x00"), wireItem(2, "r", "", "", 5, []int64{1}, []int64{1})...), false},
	{"truncated-varint", []byte("RGB\x02\x80"), true},
	{"trailing-bytes", append(append([]byte{}, wireV2...), 0), true},
	{"cells-beyond-payload", wireBatch(2, wireItem(2, "r", "", "", 5, make([]int64, 200), make([]int64, 200))[:30]), true},
	{"zero-items", []byte("RGB\x02\x00"), true},
	{"unknown-version", append([]byte("RGB\x03"), wireV2[4:]...), true},
}

// checkBatchBinary drives one input through DecodeBatchBinary and, as an
// application/x-roadgrade-batch body, through POST /v1/submit-batch on s,
// and checks what every input must hold: nothing panics; the handler
// answers 400 exactly when the decoder rejects the bytes, and a rejected
// body leaves the store generation unchanged; an accepted batch is a fixed
// point of the codec, so encoding its items and decoding again gives the
// same items by Float64bits, and encoding those gives the same bytes. It
// returns the decoder's error.
func checkBatchBinary(t *testing.T, s *Server, h http.Handler, input []byte) error {
	t.Helper()
	items, decErr := DecodeBatchBinary(input)
	gen := s.StoreGeneration()
	req := httptest.NewRequest("POST", "/v1/submit-batch", bytes.NewReader(input))
	req.Header.Set("Content-Type", ContentTypeBinary)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if decErr != nil {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("decoder rejected the batch (%v), handler answered HTTP %d", decErr, rec.Code)
		}
		if now := s.StoreGeneration(); now != gen {
			t.Fatalf("rejected batch moved the store generation %d → %d", gen, now)
		}
		return decErr
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("decoder accepted the batch, handler answered HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponseDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(items) {
		t.Fatalf("%d results for %d items (%v)", len(resp.Results), len(items), err)
	}
	wire, err := EncodeBatchBinary(items)
	if err != nil {
		t.Fatalf("re-encoding an accepted batch: %v", err)
	}
	again, err := DecodeBatchBinary(wire)
	if err != nil {
		t.Fatalf("decoding a re-encoded batch: %v", err)
	}
	sameBatchItems(t, again, items)
	if rewire, err := EncodeBatchBinary(again); err != nil || !bytes.Equal(rewire, wire) {
		t.Fatalf("encoding the items decoded from a re-encoded batch gave different bytes (%v)", err)
	}
	return nil
}

// sameBatchItems requires two decoded batches to match field for field, the
// profiles by Float64bits.
func sameBatchItems(t *testing.T, got, want []BatchItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d items, want %d", len(got), len(want))
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.RoadID != w.RoadID || g.Key != w.Key || g.Device != w.Device ||
			math.Float64bits(g.Profile.SpacingM) != math.Float64bits(w.Profile.SpacingM) ||
			!bits(g.Profile.S, w.Profile.S) || !bits(g.Profile.GradeRad, w.Profile.GradeRad) ||
			!bits(g.Profile.Var, w.Profile.Var) {
			t.Fatalf("item %d differs after a codec round trip", i)
		}
	}
}

// TestDecodeBatchBinaryCases runs the seed table through checkBatchBinary.
func TestDecodeBatchBinaryCases(t *testing.T) {
	s := NewServerWithShards(4)
	h := s.Handler()
	for _, tc := range batchBinaryCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkBatchBinary(t, s, h, tc.input); (err != nil) != tc.wantErr {
				t.Errorf("decode error %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeBatchBinaryCorpus checks every seed case has its corpus file,
// in the go test fuzz v1 encoding of its input.
func TestDecodeBatchBinaryCorpus(t *testing.T) {
	for _, tc := range batchBinaryCases {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeBatchBinary", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzDecodeBatchBinary drives arbitrary bytes through the binary batch
// codec and the batch door of a small server.
func FuzzDecodeBatchBinary(f *testing.F) {
	s := NewServerWithShards(4)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, input []byte) {
		checkBatchBinary(t, s, h, input)
	})
}
