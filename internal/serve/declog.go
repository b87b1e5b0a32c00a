package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// The decision log is the instance's durable state: one canonical JSON
// line per closed round, `{"t":T,"a":A,"v":[...],"sum":"H"}`, preceded
// by a header line `{"t":0,"spec":"H","sum":"H"}` binding the file to
// its spec. "sum" is the first 16 hex digits of the sha256 of the line
// with the sum field removed; floats are encoded in strconv shortest
// form, which round-trips bit-identically, so a parsed record re-encodes
// to exactly the checksummed bytes. The closing '}' appears only at the
// end of a line, so every proper prefix is invalid JSON and truncation
// anywhere is detectable as a torn tail.
//
// Read semantics are strict: an invalid line anywhere except the torn
// tail is corruption and the instance refuses to start. The one line a
// crash can legitimately damage — the final line — is dropped only when
// it is unverifiable; a final line that checksums but lost its newline
// is kept (the round completed; only the terminator was torn off). A
// line that checksums but is not in the writer's canonical form is
// corruption too: the reader accepts exactly the two shapes the writer
// emits, re-encoded byte for byte.

// LogName is the decision log's filename inside an instance directory.
const LogName = "log.jsonl"

// logReadSize is the read buffer of a log scan. Longer lines (a closure
// over thousands of arms) are assembled across reads.
const logReadSize = 64 << 10

// decRound is one closed round as recovered from the log: the round
// index, the action taken, and the revealed closure values in
// ascending-arm closure order.
type decRound struct {
	T int
	A int
	V []float64
}

// logRecord is one verified log line: the header (T == 0, Spec set) or
// a closed round (T > 0, Spec empty).
type logRecord struct {
	decRound
	Spec string
}

// encodeHeaderPayload appends the canonical header payload (no sum).
func encodeHeaderPayload(dst []byte, specHash string) []byte {
	dst = append(dst, headerPrefix...)
	dst = append(dst, specHash...)
	return append(dst, `"}`...)
}

// encodeRoundPayload appends the canonical round payload (no sum).
func encodeRoundPayload(dst []byte, t, action int, values []float64) []byte {
	dst = append(dst, roundPrefix...)
	dst = strconv.AppendInt(dst, int64(t), 10)
	dst = append(dst, `,"a":`...)
	dst = strconv.AppendInt(dst, int64(action), 10)
	dst = append(dst, `,"v":[`...)
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, `]}`...)
}

// seal turns a canonical payload into a full log line in place: the sum
// of the payload is spliced in before the closing brace and a newline
// appended.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	line := append(payload[:len(payload)-1], `,"sum":"`...)
	line = append(line, hx[:]...)
	return append(line, "\"}\n"...)
}

// sumSuffixLen is the byte length of the `,"sum":"<16 hex>"}` tail
// every sealed line ends with.
const sumSuffixLen = 8 + 16 + 2

// Prefixes of the two canonical line shapes.
const (
	headerPrefix = `{"t":0,"spec":"`
	roundPrefix  = `{"t":`
)

// lineParser verifies and decodes log lines. The record it returns, the
// record's value slice and its scratch buffer are reused from line to
// line, so a caller must not retain them across calls.
type lineParser struct {
	rec     logRecord
	scratch []byte
}

// parse decodes and verifies one log line (newline not included). The
// checksum is verified against the line's raw bytes — the payload is
// reconstructed by stripping the sum suffix, never by re-encoding parsed
// fields, so any byte flip in the prefix is caught. The fields are then
// scanned out of the two canonical shapes, and the line is accepted only
// if re-encoding them reproduces the payload byte for byte: every
// accepted line is exactly what the writer would have written.
func (p *lineParser) parse(raw []byte) (*logRecord, error) {
	if len(raw) < sumSuffixLen+4 {
		return nil, fmt.Errorf("short line")
	}
	idx := len(raw) - sumSuffixLen
	if !bytes.HasPrefix(raw[idx:], []byte(`,"sum":"`)) || !bytes.HasSuffix(raw, []byte(`"}`)) {
		return nil, fmt.Errorf("missing checksum suffix")
	}
	p.scratch = append(append(p.scratch[:0], raw[:idx]...), '}')
	sum := sha256.Sum256(p.scratch)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	if !bytes.Equal(raw[idx+8:len(raw)-2], hx[:]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	body := raw[:idx] // the payload without its closing brace
	rec := &p.rec
	if spec, ok := bytes.CutPrefix(body, []byte(headerPrefix)); ok {
		spec, ok = bytes.CutSuffix(spec, []byte(`"`))
		if !ok || !plainString(spec) {
			return nil, fmt.Errorf("malformed header")
		}
		rec.decRound = decRound{}
		rec.Spec = string(spec)
		return rec, nil
	}
	rec.Spec = ""
	if err := p.scanRound(body); err != nil {
		return nil, err
	}
	switch {
	case rec.T == 0:
		return nil, fmt.Errorf("malformed header")
	case rec.T < 0:
		return nil, fmt.Errorf("negative round %d", rec.T)
	}
	for _, v := range rec.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite value in round %d", rec.T)
		}
	}
	p.scratch = encodeRoundPayload(p.scratch[:0], rec.T, rec.A, rec.V)
	if !bytes.Equal(p.scratch[:len(p.scratch)-1], body) {
		return nil, fmt.Errorf("non-canonical round record")
	}
	return rec, nil
}

// scanRound reads t, a and v out of a round body shaped
// `{"t":T,"a":A,"v":[x,...]` into p.rec. It checks only the framing; the
// canonical re-encode in parse decides whether the tokens were in the
// writer's form.
func (p *lineParser) scanRound(body []byte) error {
	rest, ok := bytes.CutPrefix(body, []byte(roundPrefix))
	if !ok {
		return fmt.Errorf("malformed round record")
	}
	var tok []byte
	var err error
	if tok, rest, ok = bytes.Cut(rest, []byte(`,"a":`)); !ok {
		return fmt.Errorf("malformed round record")
	}
	if p.rec.T, err = strconv.Atoi(string(tok)); err != nil {
		return fmt.Errorf("malformed round index")
	}
	if tok, rest, ok = bytes.Cut(rest, []byte(`,"v":[`)); !ok {
		return fmt.Errorf("malformed round record")
	}
	if p.rec.A, err = strconv.Atoi(string(tok)); err != nil {
		return fmt.Errorf("malformed action")
	}
	if rest, ok = bytes.CutSuffix(rest, []byte(`]`)); !ok {
		return fmt.Errorf("malformed round record")
	}
	vals := p.rec.V[:0]
	for len(rest) > 0 {
		tok, rest, _ = bytes.Cut(rest, []byte(`,`))
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return fmt.Errorf("malformed value in round %d", p.rec.T)
		}
		vals = append(vals, v)
	}
	p.rec.V = vals
	return nil
}

// plainString reports whether s is non-empty printable ASCII with no
// quote or backslash — the strings a JSON string literal holds verbatim.
func plainString(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return len(s) > 0
}

// logScan summarises one verified pass over a decision log.
type logScan struct {
	// Rounds is the number of verified closed rounds.
	Rounds int
	// End is the byte offset just past the last verified line (its
	// newline included when it has one); appending resumes here.
	End int64
	// Size is the number of bytes read: End plus any torn tail.
	Size int64
	// Unterminated reports that the last verified line lost its newline
	// to a torn write.
	Unterminated bool
}

// scanLog reads and verifies the decision log at path in one streaming
// pass, handing each closed round to fn in order; the round and its
// value slice are reused, so fn must not retain them, and an error from
// fn ends the scan. The header must carry specHash and round indices
// must be exactly 1..N. A damaged final line is dropped only when it is
// unverifiable (the torn tail a crash can produce); damage anywhere else
// is an error — the caller must refuse to serve from the file.
func scanLog(path, specHash string, fn func(*decRound) error) (logScan, error) {
	var sc logScan
	f, err := os.Open(path)
	if err != nil {
		return sc, fmt.Errorf("serve: decision log: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, logReadSize)
	var (
		p         lineParser
		long      []byte
		sawHeader bool
	)
	for {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if err != nil && err != io.EOF {
			return sc, fmt.Errorf("serve: decision log %s: %w", path, err)
		}
		if len(raw) == 0 {
			break
		}
		sc.Size += int64(len(raw))
		line, terminated := bytes.CutSuffix(raw, []byte("\n"))
		rec, perr := p.parse(line)
		if perr != nil {
			if !terminated {
				// Torn tail: the round never durably closed. Recover to
				// the previous consistent round; the round will be
				// re-derived identically when it is decided again.
				break
			}
			return sc, fmt.Errorf("serve: decision log %s: line %d: %v", path, sc.Rounds+1+boolToInt(sawHeader), perr)
		}
		switch {
		case !sawHeader:
			if rec.T != 0 {
				return sc, fmt.Errorf("serve: decision log %s: missing header line", path)
			}
			if rec.Spec != specHash {
				return sc, fmt.Errorf("serve: decision log %s: spec hash %s does not match %s", path, rec.Spec, specHash)
			}
			sawHeader = true
		case rec.T == 0:
			return sc, fmt.Errorf("serve: decision log %s: duplicate header", path)
		case rec.T != sc.Rounds+1:
			return sc, fmt.Errorf("serve: decision log %s: round %d out of sequence (want %d)", path, rec.T, sc.Rounds+1)
		default:
			if err := fn(&rec.decRound); err != nil {
				return sc, err
			}
			sc.Rounds++
		}
		sc.End = sc.Size
		sc.Unterminated = !terminated
	}
	if !sawHeader {
		return sc, fmt.Errorf("serve: decision log %s: empty or headerless", path)
	}
	return sc, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// decLog is the append side of the decision log. Each record is written
// with a single Write call, newline included, so a crash can tear at
// most the final line.
type decLog struct {
	f    *os.File
	path string
	buf  []byte // the line being written; owned by the instance's writer goroutine
}

// createLog creates a fresh decision log with its header line. It
// refuses to overwrite an existing file.
func createLog(path, specHash string) (*decLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: create decision log: %w", err)
	}
	if _, err := f.Write(seal(encodeHeaderPayload(nil, specHash))); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: write log header: %w", err)
	}
	return &decLog{f: f, path: path}, nil
}

// reopenLog opens an existing decision log for appending after sc, a
// verified scan of it: a torn tail past sc.End is truncated away, and a
// final verified line that lost its newline gets it back, so new records
// start on a line boundary.
func reopenLog(path string, sc logScan) (*decLog, error) {
	if sc.End < sc.Size {
		if err := os.Truncate(path, sc.End); err != nil {
			return nil, fmt.Errorf("serve: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: reopen decision log: %w", err)
	}
	if sc.Unterminated {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: repair decision log: %w", err)
		}
	}
	return &decLog{f: f, path: path}, nil
}

// append durably records one closed round.
func (l *decLog) append(t, action int, values []float64) error {
	l.buf = seal(encodeRoundPayload(l.buf[:0], t, action, values))
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("serve: append decision log: %w", err)
	}
	return nil
}

// sync flushes the log to stable storage; called at snapshot points and
// on graceful shutdown rather than per record.
func (l *decLog) sync() error { return l.f.Sync() }

func (l *decLog) close() error {
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
