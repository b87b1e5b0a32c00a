package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// jsonLogLine and jsonParseLine are the encoding/json reader the canonical
// scanner replaced, kept as the differential reference: the raw-byte
// checksum check, then a strict JSON decode of the whole line.
type jsonLogLine struct {
	T    int       `json:"t"`
	A    *int      `json:"a"`
	V    []float64 `json:"v"`
	Spec string    `json:"spec"`
	Sum  string    `json:"sum"`
}

func jsonParseLine(raw []byte) (*logRecord, error) {
	if len(raw) < sumSuffixLen+4 {
		return nil, fmt.Errorf("short line")
	}
	idx := len(raw) - sumSuffixLen
	if !bytes.HasPrefix(raw[idx:], []byte(`,"sum":"`)) || !bytes.HasSuffix(raw, []byte(`"}`)) {
		return nil, fmt.Errorf("missing checksum suffix")
	}
	want := seal(append(append([]byte(nil), raw[:idx]...), '}'))
	if !bytes.Equal(raw, want[:len(want)-1]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	var ll jsonLogLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ll); err != nil {
		return nil, err
	}
	switch {
	case ll.T == 0:
		if ll.Spec == "" || ll.A != nil || ll.V != nil {
			return nil, fmt.Errorf("malformed header")
		}
		return &logRecord{Spec: ll.Spec}, nil
	case ll.T > 0:
		if ll.A == nil || ll.Spec != "" {
			return nil, fmt.Errorf("malformed round record")
		}
		for _, v := range ll.V {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite value")
			}
		}
		return &logRecord{decRound: decRound{T: ll.T, A: *ll.A, V: ll.V}}, nil
	}
	return nil, fmt.Errorf("negative round %d", ll.T)
}

// sameRecord reports whether two records carry identical fields, values
// compared bit for bit.
func sameRecord(a, b *logRecord) bool {
	if a.T != b.T || a.A != b.A || a.Spec != b.Spec || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// unsealed strips a sealed line's newline, the form parse takes.
func unsealed(payload []byte) []byte {
	line := seal(payload)
	return line[:len(line)-1]
}

// awkwardValues are floats whose shortest form exercises every corner of
// the canonical scan: signed zero, the smallest subnormal, exponents on
// both sides, and a neighbour of a short decimal.
var awkwardValues = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-17, 1e21, 1e20, -1e21,
	math.Nextafter(0.3, 1), 0.1, 1, 1.5, math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// TestLineParserMatchesJSONReference checks the canonical scanner against
// the encoding/json reference: every line the writer emits is accepted by
// both with bit-identical fields, every line the scanner accepts the
// reference accepts identically, and checksummed lines in a form the
// writer never emits are refused by the scanner even where JSON takes them.
func TestLineParserMatchesJSONReference(t *testing.T) {
	long := make([]float64, 8000) // ~150 KB: longer than the scan's read buffer
	for i := range long {
		long[i] = math.Nextafter(float64(i)/7, 2)
	}
	if n := len(encodeRoundPayload(nil, 1, 0, long)); n <= logReadSize {
		t.Fatalf("long line is %d bytes, not longer than the %d-byte read buffer", n, logReadSize)
	}
	canonical := [][]byte{
		unsealed(encodeHeaderPayload(nil, "0123456789abcdef")),
		unsealed(encodeRoundPayload(nil, 1, 0, awkwardValues)),
		unsealed(encodeRoundPayload(nil, 2, 7, nil)),
		unsealed(encodeRoundPayload(nil, math.MaxInt, math.MaxInt32, []float64{math.Copysign(0, -1)})),
	}
	for _, v := range awkwardValues {
		canonical = append(canonical, unsealed(encodeRoundPayload(nil, 9, 2, []float64{v, -v})))
	}
	longLine := unsealed(encodeRoundPayload(nil, 3, 1, long))
	for i, raw := range append(canonical, longLine) {
		got, err := parseLine(raw)
		if err != nil {
			t.Fatalf("canonical line %d refused: %v", i, err)
		}
		want, err := jsonParseLine(raw)
		if err != nil {
			t.Fatalf("canonical line %d refused by the JSON reference: %v", i, err)
		}
		if !sameRecord(got, want) {
			t.Fatalf("canonical line %d: scanner %+v, JSON reference %+v", i, got, want)
		}
	}

	// Checksummed but non-canonical: JSON takes each, the scanner must not.
	for _, payload := range []string{
		`{"t":1,"a":0,"v":[1.0]}`,
		`{"t":1,"a":0,"v":[1E0]}`,
		`{"t":1,"a":0,"v":[0.30000000000000004441]}`,
		`{"t":1,"a":0,"v":[-0.0]}`,
		`{"t":1,"a":0,"v":[1e+021]}`,
		`{"a":0,"t":1,"v":[1]}`,
		`{"t":1, "a":0,"v":[1]}`,
		`{"t":1,"a":0}`,
		`{"t":1,"a":0,"v":null}`,
		`{"spec":"abc","t":0}`,
	} {
		raw := unsealed([]byte(payload))
		if _, err := jsonParseLine(raw); err != nil {
			t.Fatalf("%s: JSON reference refused: %v", payload, err)
		}
		if rec, err := parseLine(raw); err == nil {
			t.Fatalf("%s: non-canonical line accepted as %+v", payload, rec)
		}
	}

	// Byte flips and truncations of canonical lines: whatever the scanner
	// still accepts, the reference accepts with the same fields.
	for _, raw := range canonical {
		for off := 0; off < len(raw); off++ {
			for _, mut := range [][]byte{
				append(append([]byte(nil), raw[:off]...), raw[off+1:]...),
				flip(raw, off),
			} {
				got, err := parseLine(mut)
				if err != nil {
					continue
				}
				want, rerr := jsonParseLine(mut)
				if rerr != nil || !sameRecord(got, want) {
					t.Fatalf("%q: scanner accepted %+v, JSON reference %+v (%v)", mut, got, want, rerr)
				}
			}
		}
	}

	// The long line also streams through scanLog, assembled across reads.
	path := filepath.Join(t.TempDir(), LogName)
	l, err := createLog(path, "0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range [][]float64{awkwardValues, long, {1}} {
		if err := l.append(i+1, i, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	rounds, err := readLog(path, "0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || !sameRecord(&logRecord{decRound: rounds[1]}, &logRecord{decRound: decRound{T: 2, A: 1, V: long}}) {
		t.Fatalf("long closure line did not survive the streaming scan")
	}
}

func flip(raw []byte, off int) []byte {
	out := append([]byte(nil), raw...)
	out[off] ^= 0x01
	return out
}

// FuzzParseLine: no input panics the scanner, and every line it accepts is
// exactly what the writer would emit for the parsed fields (re-sealing them
// reproduces the line byte for byte) and decodes identically under the
// encoding/json reference.
func FuzzParseLine(f *testing.F) {
	f.Add(unsealed(encodeHeaderPayload(nil, "0123456789abcdef")))
	f.Add(unsealed(encodeRoundPayload(nil, 1, 0, awkwardValues)))
	f.Add(unsealed(encodeRoundPayload(nil, 2, 3, nil)))
	f.Add(unsealed(encodeRoundPayload(nil, 17, 4, []float64{0.5, 1, 0})))
	f.Add([]byte(`{"t":1,"a":0,"v":[1],"sum":"0000000000000000"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := parseLine(raw)
		if err != nil {
			return
		}
		var payload []byte
		if rec.T == 0 {
			payload = encodeHeaderPayload(nil, rec.Spec)
		} else {
			payload = encodeRoundPayload(nil, rec.T, rec.A, rec.V)
		}
		if resealed := unsealed(payload); !bytes.Equal(resealed, raw) {
			t.Fatalf("accepted %q, but its fields re-seal to %q", raw, resealed)
		}
		want, err := jsonParseLine(raw)
		if err != nil || !sameRecord(rec, want) {
			t.Fatalf("accepted %q as %+v; JSON reference %+v (%v)", raw, rec, want, err)
		}
	})
}

// TestRestoreFailureLeaksNoGoroutines: when one instance of a data
// directory is tampered with, New refuses to start and stops every
// instance it had already restored, whichever side of the tampered one
// it sits on in directory order.
func TestRestoreFailureLeaksNoGoroutines(t *testing.T) {
	for _, bad := range []string{"alpha", "beta"} {
		t.Run("tampered-"+bad, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Options{Dir: dir, SnapshotEvery: 1000})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"alpha", "beta"} {
				if _, err := s.CreateInstance(testSpec(id, FeedbackEnv)); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 6; i++ {
					if _, err := s.Decide(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Flip a byte inside round 3's line: corruption, not a torn tail.
			path := filepath.Join(dir, "instances", bad, LogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(raw, []byte("\n"))
			raw[len(lines[0])+len(lines[1])+len(lines[2])+3] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			base := settledGoroutines(-1)
			if _, err := New(Options{Dir: dir, SnapshotEvery: 1000}); err == nil ||
				!strings.Contains(err.Error(), "serve: restore "+bad+":") {
				t.Fatalf("tampered %s: New err = %v, want a restore refusal naming it", bad, err)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after the refused restore, %d before", n, base)
			}
		})
	}
}

// settledGoroutines polls the goroutine count for up to five seconds until
// it is at most target (or, for target < 0, until it stops changing) and
// returns the last count.
func settledGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if (target >= 0 && m <= target) || (target < 0 && m == n) {
			return m
		}
		n = m
	}
	return n
}
