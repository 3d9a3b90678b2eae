package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/temporal"
)

// Every /walk reply — the single-process server's, the durable server's and
// a shard's, which the router relays — is rendered here, by appending
// straight from []core.Path into a pooled buffer. The bytes are
// exactly what json.NewEncoder(w).Encode produced for the reply structs this
// replaced: keys in declaration order, cost keys sorted, "walks":null for no
// paths, no "t" on a walk's start hop, a trailing newline.

// costField is one entry of a reply's "cost" object. Every value is a JSON
// string: an integer in decimal, a ratio to two decimals (fmt's %.2f) or
// text verbatim.
type costField struct {
	key  string
	kind byte // 'd', 'f' or 's'
	n    int64
	x    float64
	s    string
}

func costNum(key string, n int64) costField     { return costField{key: key, kind: 'd', n: n} }
func costRatio(key string, x float64) costField { return costField{key: key, kind: 'f', x: x} }
func costText(key, s string) costField          { return costField{key: key, kind: 's', s: s} }

// walkReply is one /walk response body.
type walkReply struct {
	from   temporal.Vertex
	paths  []core.Path
	detail *reqcost.Cost
}

// appendJSON appends the reply's JSON encoding and its trailing newline. The
// cost entries may come in any order; they are rendered sorted by key. They
// are not a field of walkReply so that they can stay on the caller's stack:
// escape analysis would send them to the heap with the detail.
func (rep *walkReply) appendJSON(b []byte, cost []costField) []byte {
	b = append(b, `{"from":`...)
	b = strconv.AppendUint(b, uint64(rep.from), 10)
	b = append(b, `,"walks":`...)
	b = appendPaths(b, rep.paths)
	b = append(b, `,"cost":{`...)
	slices.SortFunc(cost, func(x, y costField) int { return strings.Compare(x.key, y.key) })
	for i, f := range cost {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, f.key)
		b = append(b, ':')
		switch f.kind {
		case 'd':
			b = append(b, '"')
			b = strconv.AppendInt(b, f.n, 10)
			b = append(b, '"')
		case 'f':
			b = append(b, '"')
			b = strconv.AppendFloat(b, f.x, 'f', 2, 64)
			b = append(b, '"')
		default:
			b = appendString(b, f.s)
		}
	}
	b = append(b, '}')
	if rep.detail != nil {
		b = append(b, `,"cost_detail":`...)
		b = appendMarshal(b, rep.detail)
	}
	return append(b, "}\n"...)
}

// appendPaths renders walks as arrays of hops: {"v":vertex} for the start,
// {"v":vertex,"t":time} for every step.
func appendPaths(b []byte, paths []core.Path) []byte {
	if paths == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, p := range paths {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range p.Vertices {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"v":`...)
			b = strconv.AppendUint(b, uint64(v), 10)
			if j > 0 {
				b = append(b, `,"t":`...)
				b = strconv.AppendInt(b, int64(p.Times[j-1]), 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. A string encoding/json copies
// verbatim — valid UTF-8 with no quote, backslash, control character, <, >,
// &, U+2028 or U+2029 — is copied here too; any other goes through
// encoding/json itself, so the two cannot disagree.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r < 0x20 || r == '"' || r == '\\' || r == '<' || r == '>' || r == '&' ||
			r == '\u2028' || r == '\u2029' || r == utf8.RuneError && size == 1 {
			return appendMarshal(b, s)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshal appends encoding/json's rendering of v. Only strings and
// structs of ints reach it, which cannot fail to marshal.
func appendMarshal(b []byte, v any) []byte {
	m, _ := json.Marshal(v)
	return append(b, m...)
}

// maxPooledReply is the largest reply buffer kept for reuse; a rare huge
// reply is left to the collector instead of pinning its memory in the pool.
const maxPooledReply = 1 << 20

var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeWalkReply sends rep as a 200 with its Content-Length, in one Write.
func writeWalkReply(w http.ResponseWriter, rep *walkReply, cost ...costField) {
	bp := replyBufs.Get().(*[]byte)
	b := rep.appendJSON((*bp)[:0], cost)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client has gone; nobody is left to tell
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}
