// Fast-path NDJSON codec for Job lines. The daemon's admission path
// decodes one Job per submitted line and the client encodes one per
// POST; both went through encoding/json's reflective walk, which
// benchmarks showed as a top serving-tax component. AppendJob emits the
// exact bytes json.Marshal produces into a caller-reused buffer, its
// floats formatted by internal/jsonfloat, and fastParseJob decodes
// the strict common case (flat object, plain field names,
// JSON-grammar numbers) without reflection. The parser is
// deliberately paranoid: any deviation — unknown or escaped keys,
// duplicate fields, a number strconv would take but JSON grammar
// rejects (hex floats, "+1", "1."), trailing content — returns
// ok=false so the caller falls back to json.Unmarshal and the stdlib
// keeps sole ownership of acceptance and error semantics.
package workload

import (
	"fmt"
	"math"
	"strconv"

	"treesched/internal/jsonfloat"
)

// AppendJob appends j as one compact JSON object — the exact bytes
// json.Marshal(j) produces — and returns the extended buffer. No
// trailing newline. Non-finite floats are an error, mirroring
// encoding/json.
func AppendJob(dst []byte, j *Job) ([]byte, error) {
	if !jobFinite(j) {
		return dst, fmt.Errorf("workload: job %d has a non-finite field, refusing to encode", j.ID)
	}
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendInt(dst, int64(j.ID), 10)
	dst = append(dst, `,"Release":`...)
	dst = jsonfloat.Append(dst, j.Release)
	dst = append(dst, `,"Size":`...)
	dst = jsonfloat.Append(dst, j.Size)
	dst = append(dst, `,"LeafSizes":`...)
	if j.LeafSizes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range j.LeafSizes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonfloat.Append(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Weight":`...)
	dst = jsonfloat.Append(dst, j.Weight)
	dst = append(dst, `,"Origin":`...)
	dst = strconv.AppendInt(dst, int64(j.Origin), 10)
	dst = append(dst, '}')
	return dst, nil
}

func jobFinite(j *Job) bool {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if !finite(j.Release) || !finite(j.Size) || !finite(j.Weight) {
		return false
	}
	for _, v := range j.LeafSizes {
		if !finite(v) {
			return false
		}
	}
	return true
}

// Field-seen bits for duplicate detection in fastParseJob.
const (
	fID = 1 << iota
	fRelease
	fSize
	fLeafSizes
	fWeight
	fOrigin
)

type fastParser struct {
	b   []byte
	pos int
}

func (p *fastParser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *fastParser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// key scans a plain (escape-free) JSON string at the cursor.
func (p *fastParser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		if c == '"' {
			k := p.b[start:p.pos]
			p.pos++
			return k, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// number scans a literal at the cursor and validates it against the
// JSON number grammar — strictly, because strconv accepts forms JSON
// rejects (hex floats, "Inf", a leading '+', a bare trailing dot).
func (p *fastParser) number() ([]byte, bool) {
	b, i, n := p.b, p.pos, len(p.b)
	start := i
	if i < n && b[i] == '-' {
		i++
	}
	if i >= n {
		return nil, false
	}
	switch {
	case b[i] == '0':
		i++
	case b[i] >= '1' && b[i] <= '9':
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, false
	}
	if i < n && b[i] == '.' {
		i++
		if i >= n || b[i] < '0' || b[i] > '9' {
			return nil, false
		}
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < n && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= n || b[i] < '0' || b[i] > '9' {
			return nil, false
		}
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	p.pos = i
	return b[start:i], true
}

func (p *fastParser) intVal(bitSize int) (int64, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	// A fraction or exponent makes this a float literal; stdlib
	// rejects those for integer targets — let the fallback say so.
	for _, c := range lit {
		if c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	v, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (p *fastParser) floatVal() (float64, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, false // e.g. out of float64 range; stdlib errors too
	}
	return v, true
}

// leafSizes scans null or a flat array of numbers. An empty array
// yields a non-nil empty slice, matching json.Unmarshal.
func (p *fastParser) leafSizes() ([]float64, bool) {
	if p.pos+4 <= len(p.b) && string(p.b[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return nil, true
	}
	if !p.eat('[') {
		return nil, false
	}
	p.ws()
	if p.eat(']') {
		return []float64{}, true
	}
	var out []float64
	for {
		v, ok := p.floatVal()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat(']') {
			return out, true
		}
		return nil, false
	}
}

// fastParseJob decodes one Job object from line without reflection.
// Returns false — leaving *j in an unspecified state — whenever the
// input strays from the strict common case; callers must then retry
// the same bytes with json.Unmarshal.
func fastParseJob(line []byte, j *Job) bool {
	p := fastParser{b: line}
	p.ws()
	if !p.eat('{') {
		return false
	}
	*j = Job{}
	var seen uint8
	p.ws()
	if !p.eat('}') {
		for {
			key, ok := p.key()
			if !ok {
				return false
			}
			p.ws()
			if !p.eat(':') {
				return false
			}
			p.ws()
			var bit uint8
			switch string(key) {
			case "ID":
				bit = fID
				v, ok := p.intVal(64)
				if !ok {
					return false
				}
				j.ID = int(v)
			case "Release":
				bit = fRelease
				if j.Release, ok = p.floatVal(); !ok {
					return false
				}
			case "Size":
				bit = fSize
				if j.Size, ok = p.floatVal(); !ok {
					return false
				}
			case "LeafSizes":
				bit = fLeafSizes
				if j.LeafSizes, ok = p.leafSizes(); !ok {
					return false
				}
			case "Weight":
				bit = fWeight
				if j.Weight, ok = p.floatVal(); !ok {
					return false
				}
			case "Origin":
				bit = fOrigin
				v, ok := p.intVal(32)
				if !ok {
					return false
				}
				j.Origin = int32(v)
			default:
				return false // unknown key: stdlib ignores it, we defer
			}
			if seen&bit != 0 {
				return false // duplicate key: stdlib is last-wins, defer
			}
			seen |= bit
			p.ws()
			if p.eat(',') {
				p.ws()
				continue
			}
			if p.eat('}') {
				break
			}
			return false
		}
	}
	p.ws()
	return p.pos == len(p.b)
}
