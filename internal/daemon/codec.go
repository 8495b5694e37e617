package daemon

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"

	"joza/internal/core"
	"joza/internal/trace"
)

// This file is the binary frame codec every daemon connection speaks from
// its first byte (DESIGN §8.3). A frame is
//
//	kind byte · uvarint body length · body
//
// Bodies are built by append code from the request or the verdict and
// parsed field by field: no reflection, no field names, no quoting.

// Frame kinds. A request and its reply share a kind.
const (
	// frameAnalyze carries one analyze request or its response.
	frameAnalyze byte = 1
	// frameBatch carries a batch: the frame's own request fields (its
	// dialect and version defaults), a count, then that many analyze
	// requests; the reply is a count and that many analyze responses, or
	// a zero count and the whole-batch refusal.
	frameBatch byte = 2
	// frameJSON wraps a JSON wireRequest or wireResponse, for the control
	// verbs (stats, traces, prepare, commit, abort) that stay JSON.
	frameJSON byte = 3
)

// frameHead is room for a frame's kind and body length, reserved in front
// of a body being appended so the finished frame goes out in one Write.
const frameHead = 1 + binary.MaxVarintLen64

// smallBody is the largest body read into a buffer sized up front; a
// longer declared length is read as its bytes arrive, so a peer cannot
// make the reader allocate for a body it never sends.
const smallBody = 64 << 10

// Request field flags: which optional fields follow the query.
const (
	reqSite = 1 << iota
	reqDialect
	reqVersion
	reqTimeout
)

// Response flags.
const (
	respAttack = 1 << iota
	// respErr: the body is the refusal text, and nothing else.
	respErr
	respProfile
	respProfileAttack
	// respTrace: the daemon's span follows, as JSON.
	respTrace
)

// profileOutcomes is the wire enum of ProfileReply.Outcome: the outcome
// travels as its index, and decodes to these constant strings.
var profileOutcomes = [...]string{"", "learned", "seen", "unseen", "site-unknown"}

// otherOutcome marks an outcome outside profileOutcomes, sent as text.
const otherOutcome = 0xff

var errFrame = errors.New("daemon: malformed binary frame")

// beginFrame returns buf emptied down to the reserved frame head.
func beginFrame(buf []byte) []byte {
	if cap(buf) < frameHead {
		return make([]byte, frameHead, 512)
	}
	return buf[:frameHead]
}

// finishFrame writes kind and the body length in front of the body
// appended after beginFrame and returns the whole frame, a suffix of buf.
func finishFrame(buf []byte, kind byte) []byte {
	var head [frameHead]byte
	head[0] = kind
	n := 1 + binary.PutUvarint(head[1:], uint64(len(buf)-frameHead))
	start := frameHead - n
	copy(buf[start:], head[:n])
	return buf[start:]
}

// readFrameHead reads a frame's kind and declared body length. A kind
// that is none of the frame kinds is returned with errFrame before any
// length byte is read, so a reader can answer a peer that opened with
// something else (a JSON-era client's '{').
func readFrameHead(br *bufio.Reader) (kind byte, n uint64, err error) {
	if kind, err = br.ReadByte(); err != nil {
		return 0, 0, err
	}
	if kind < frameAnalyze || kind > frameJSON {
		return kind, 0, errFrame
	}
	n, err = binary.ReadUvarint(br)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return kind, n, err
}

// readBody reads an n-byte frame body, reusing buf when it is large
// enough, and returns the body.
func readBody(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	if n > uint64(cap(buf)) && n > smallBody {
		body, err := io.ReadAll(io.LimitReader(r, int64(n)))
		if err == nil && uint64(len(body)) != n {
			err = io.ErrUnexpectedEOF
		}
		return body, err
	}
	if n > uint64(cap(buf)) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// discardBody skips an n-byte frame body without buffering it.
func discardBody(br *bufio.Reader, n uint64) error {
	for n > 0 {
		step := int(min(n, 1<<30))
		if _, err := br.Discard(step); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n -= uint64(step)
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendRequest appends one analyze request: the flags, the query, then
// only the optional fields that are set.
func appendRequest(dst []byte, req *wireRequest) []byte {
	var flags byte
	if req.Site != "" {
		flags |= reqSite
	}
	if req.Dialect != "" {
		flags |= reqDialect
	}
	if req.Version != "" {
		flags |= reqVersion
	}
	if req.TimeoutMs != 0 {
		flags |= reqTimeout
	}
	dst = appendString(append(dst, flags), req.Query)
	if req.Site != "" {
		dst = appendString(dst, req.Site)
	}
	if req.Dialect != "" {
		dst = appendString(dst, req.Dialect)
	}
	if req.Version != "" {
		dst = appendString(dst, req.Version)
	}
	if req.TimeoutMs != 0 {
		dst = binary.AppendVarint(dst, req.TimeoutMs)
	}
	return dst
}

// appendBatchRequest appends a batch: the frame's fields, the item count
// and the items.
func appendBatchRequest(dst []byte, req *wireRequest) []byte {
	dst = appendRequest(dst, &wireRequest{Dialect: req.Dialect, Version: req.Version})
	dst = binary.AppendUvarint(dst, uint64(len(req.Batch)))
	for i := range req.Batch {
		dst = appendRequest(dst, &req.Batch[i])
	}
	return dst
}

// appendRequestBody appends the body of the frame that carries req and
// returns the frame's kind: an analyze or batch request in its own
// encoding, and a control verb as a JSON envelope.
func appendRequestBody(dst []byte, req *wireRequest) ([]byte, byte, error) {
	switch req.Op {
	case "", "analyze":
		return appendRequest(dst, req), frameAnalyze, nil
	case "batch":
		return appendBatchRequest(dst, req), frameBatch, nil
	}
	// Marshal a copy: passing req itself would move every caller's
	// request to the heap, analyze requests included.
	b, err := json.Marshal(*req)
	return append(dst, b...), frameJSON, err
}

// appendRefusal appends the response that refuses a whole request frame
// of kind with msg: an analyze error, a batch's zero count and refusal,
// or a JSON envelope's error.
func appendRefusal(dst []byte, kind byte, msg string) []byte {
	switch kind {
	case frameAnalyze:
		return appendString(append(dst, respErr), msg)
	case frameBatch:
		return appendString(append(dst, 0), msg)
	}
	b, _ := json.Marshal(wireResponse{Err: msg}) // a string field cannot fail
	return append(dst, b...)
}

// appendVerdictResponse appends the analyze response for v, or the
// refusal msg when it is non-empty. It writes exactly what replyFor puts
// in an AnalysisReply, less the site, which the client already knows.
func appendVerdictResponse(dst []byte, v *core.Verdict, msg string) []byte {
	if msg != "" {
		return appendRefusal(dst, frameAnalyze, msg)
	}
	var flags byte
	if v.PTI.Attack || (v.Attack && !v.Profile.Attack) {
		flags |= respAttack
	}
	profile := v.ProfileOutcome != "" || v.Profile.Attack
	if profile {
		flags |= respProfile
	}
	if v.Profile.Attack {
		flags |= respProfileAttack
	}
	var span []byte
	if v.Trace != nil {
		if b, err := json.Marshal(v.Trace); err == nil {
			flags |= respTrace
			span = b
		}
	}
	dst = appendString(append(dst, flags), v.Version)
	dst = binary.AppendUvarint(dst, uint64(len(v.PTI.Reasons)))
	for i := range v.PTI.Reasons {
		r := &v.PTI.Reasons[i]
		dst = binary.AppendVarint(dst, int64(r.Token.Kind))
		dst = appendString(dst, r.Token.Text)
		dst = binary.AppendVarint(dst, int64(r.Token.Start))
		dst = binary.AppendVarint(dst, int64(r.Token.End))
		dst = appendString(dst, r.DetailText())
	}
	if profile {
		dst = appendOutcome(dst, v.ProfileOutcome)
		dst = appendString(dst, v.Skeleton)
		var detail string
		if len(v.Profile.Reasons) > 0 {
			detail = v.Profile.Reasons[0].DetailText()
		}
		dst = appendString(dst, detail)
	}
	if span != nil {
		dst = append(binary.AppendUvarint(dst, uint64(len(span))), span...)
	}
	return dst
}

func appendOutcome(dst []byte, outcome string) []byte {
	for i, o := range profileOutcomes {
		if o == outcome {
			return append(dst, byte(i))
		}
	}
	return appendString(append(dst, otherOutcome), outcome)
}

// bodyReader parses a frame body. The first malformed field marks it bad;
// every later read then returns a zero value, so a parser checks once at
// the end.
type bodyReader struct {
	b   []byte
	bad bool
}

// fail marks the body malformed and drops what is left of it.
func (r *bodyReader) fail() { r.bad, r.b = true, nil }

func (r *bodyReader) u8() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// field returns the next length-prefixed field, aliasing the body.
func (r *bodyReader) field() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *bodyReader) str() string { return string(r.field()) }

// count reads an element count, refusing one the remaining body cannot
// hold at min bytes per element, so a corrupt count never sizes an
// allocation.
func (r *bodyReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *bodyReader) request() wireRequest {
	flags := r.u8()
	req := wireRequest{Query: r.str()}
	if flags&reqSite != 0 {
		req.Site = r.str()
	}
	if flags&reqDialect != 0 {
		req.Dialect = r.str()
	}
	if flags&reqVersion != 0 {
		req.Version = r.str()
	}
	if flags&reqTimeout != 0 {
		req.TimeoutMs = r.varint()
	}
	if flags&^(reqSite|reqDialect|reqVersion|reqTimeout) != 0 {
		r.fail()
	}
	return req
}

// response parses one analyze response to a request that named site.
func (r *bodyReader) response(site string) wireResponse {
	flags := r.u8()
	if flags&respErr != 0 {
		if flags != respErr {
			r.fail()
		}
		return wireResponse{Err: r.str()}
	}
	if flags&^(respAttack|respProfile|respProfileAttack|respTrace) != 0 {
		r.fail()
	}
	var reply *AnalysisReply
	if flags&respProfile != 0 {
		// One object holds the reply and its profile.
		both := new(struct {
			reply   AnalysisReply
			profile ProfileReply
		})
		reply = &both.reply
		reply.Profile = &both.profile
	} else {
		reply = new(AnalysisReply)
	}
	reply.Attack, reply.Version = flags&respAttack != 0, r.str()
	if n := r.count(5); n > 0 {
		reply.Reasons = make([]ReasonJSON, n)
		for i := range reply.Reasons {
			reply.Reasons[i] = ReasonJSON{
				Token: TokenJSON{
					Kind:  int(r.varint()),
					Text:  r.str(),
					Start: int(r.varint()),
					End:   int(r.varint()),
				},
				Detail: r.str(),
			}
		}
	}
	if p := reply.Profile; p != nil {
		p.Attack, p.Site = flags&respProfileAttack != 0, site
		if o := r.u8(); int(o) < len(profileOutcomes) {
			p.Outcome = profileOutcomes[o]
		} else if o == otherOutcome {
			p.Outcome = r.str()
		} else {
			r.fail()
		}
		p.Skeleton = r.str()
		p.Detail = r.str()
	} else if flags&respProfileAttack != 0 {
		r.fail()
	}
	if flags&respTrace != 0 {
		reply.Trace = new(trace.Span)
		if err := json.Unmarshal(r.field(), reply.Trace); err != nil {
			r.fail()
		}
	}
	return wireResponse{Reply: reply}
}

// parseRequest parses the body of a request frame of kind frameAnalyze or
// frameBatch.
func parseRequest(kind byte, body []byte) (wireRequest, error) {
	r := bodyReader{b: body}
	req := r.request()
	if kind == frameBatch {
		req.Op = "batch"
		req.Batch = make([]wireRequest, r.count(2))
		for i := range req.Batch {
			req.Batch[i] = r.request()
		}
	}
	if r.bad || len(r.b) != 0 {
		return wireRequest{}, errFrame
	}
	return req, nil
}

// parseResponse parses the body of a reply frame of kind to req.
func parseResponse(kind byte, body []byte, req *wireRequest) (wireResponse, error) {
	var resp wireResponse
	r := bodyReader{b: body}
	switch kind {
	case frameAnalyze:
		resp = r.response(req.Site)
	case frameBatch:
		// A count other than the request's is the caller's to refuse: the
		// frame itself parses, and the stream stays in sync.
		n := r.count(2)
		if n == 0 {
			resp.Err = r.str()
			break
		}
		resp.Batch = make([]wireResponse, n)
		for i := range resp.Batch {
			var site string
			if i < len(req.Batch) {
				site = req.Batch[i].Site
			}
			resp.Batch[i] = r.response(site)
		}
	case frameJSON:
		var env wireResponse
		err := json.Unmarshal(body, &env)
		return env, err
	default:
		return resp, errFrame
	}
	if r.bad || len(r.b) != 0 {
		return wireResponse{}, errFrame
	}
	return resp, nil
}
