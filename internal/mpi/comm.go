package mpi

import (
	"fmt"
	"sort"

	"fm/internal/core"
)

// Status describes a completed receive: the sender's rank in this
// communicator, the message tag, and the payload byte count.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is a nonblocking operation handle. Requests complete in
// whatever order their messages arrive — not necessarily post order.
type Request struct {
	done bool

	// Posted receive envelope (may hold wildcards).
	src, tag int

	// Results, valid once done.
	data   []byte
	status Status
}

// Done reports whether the operation has completed. For receives this
// means the full message (all fragments) has arrived and matched.
func (r *Request) Done() bool { return r.done }

// message is one MPI message being reassembled and matched. It is
// created when the first fragment arrives and carries the envelope from
// that fragment (every fragment repeats it).
type message struct {
	srcRank  int
	tag      int
	segCount int
	got      int
	segs     [][]byte
	req      *Request // matched posting, nil while unexpected
}

func (m *message) complete() bool { return m.got == m.segCount }

func (m *message) assemble() []byte {
	var out []byte
	for _, s := range m.segs {
		out = append(out, s...)
	}
	return out
}

// inflightKey identifies one in-progress message from one source node.
type inflightKey struct {
	srcNode int
	msgSeq  uint32
}

// Comm is one node's membership in a communicator: an ordered group of
// nodes with its own rank numbering and an isolated matching context.
// All members of a group must create communicators (World, Split) and
// invoke collectives in the same order — the usual MPI constraint.
type Comm struct {
	eng   *Engine
	ctx   uint32
	nodes []int       // rank -> world node id
	ranks map[int]int // world node id -> rank
	rank  int

	nextMsgSeq map[int]uint32 // per destination node, this context
	posted     []*Request     // posted receives, post order
	unexpected []*message     // unmatched messages, arrival order
	inflight   map[inflightKey]*message

	collSeq uint32 // collective invocation counter (internal tags)
	nSplits uint32 // child-context allocation counter
}

// NewWorld joins the cluster-wide communicator spanning nodes
// 0..size-1, binding FM handler id h on this endpoint. Every member
// must use the same size and handler id. This is the MPI layer's entry
// point; derive further communicators with Split.
func NewWorld(ep *core.Endpoint, size, h int) *Comm {
	eng := newEngine(ep, h)
	nodes := make([]int, size)
	for i := range nodes {
		nodes[i] = i
	}
	return newComm(eng, 0, nodes)
}

func newComm(eng *Engine, ctx uint32, nodes []int) *Comm {
	me := eng.ep.NodeID()
	c := &Comm{
		eng:        eng,
		ctx:        ctx,
		nodes:      append([]int(nil), nodes...),
		ranks:      make(map[int]int, len(nodes)),
		rank:       -1,
		nextMsgSeq: make(map[int]uint32),
		inflight:   make(map[inflightKey]*message),
	}
	for r, n := range nodes {
		c.ranks[n] = r
		if n == me {
			c.rank = r
		}
	}
	if c.rank < 0 {
		panic(fmt.Sprintf("mpi: node %d is not a member of the group %v", me, nodes))
	}
	eng.register(c)
	return c
}

// Rank returns this member's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

func (c *Comm) size() int { return len(c.nodes) }

// node translates a rank in this communicator to a world node id.
func (c *Comm) node(rank int) int {
	if rank < 0 || rank >= c.size() {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", rank, c.size()))
	}
	return c.nodes[rank]
}

// --- Point-to-point ---

// Isend starts a nonblocking tagged send of data to rank dst. The
// request is complete when the layer has copied the data out, which —
// as in FM itself, where FM_send returns once the host has moved the
// frame — happens before Isend returns; the handle exists for symmetry
// with Irecv. Tags must be non-negative.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.checkUserTag(tag)
	c.isend(dst, tag, data)
	return &Request{done: true}
}

// Send is the blocking tagged send (complete when the buffer is
// reusable, i.e. immediately after the layer's copy).
func (c *Comm) Send(dst, tag int, data []byte) {
	c.checkUserTag(tag)
	c.isend(dst, tag, data)
}

func (c *Comm) checkUserTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: application tags must be >= 0 (got %d)", tag))
	}
}

// isend transmits under any tag (collectives use negative tags).
func (c *Comm) isend(dst, tag int, data []byte) {
	c.eng.ep.CPU().Advance(postCost)
	dstNode := c.node(dst)
	seq := c.nextMsgSeq[dstNode]
	c.nextMsgSeq[dstNode]++
	if dstNode == c.eng.ep.NodeID() {
		// Self-send: loop back through the matcher without touching FM
		// (FM has no self-send; MPI programs expect one).
		c.acceptLocal(dstNode, tag, seq, data)
		return
	}
	c.eng.sendFragments(dstNode, c.ctx, tag, seq, data)
}

// acceptLocal feeds a self-send through the same fragmentation path the
// wire uses, so segmentation and matching behave identically.
func (c *Comm) acceptLocal(node, tag int, seq uint32, data []byte) {
	maxData := c.eng.maxData()
	segs := 1
	if len(data) > 0 {
		segs = (len(data) + maxData - 1) / maxData
	}
	for s := 0; s < segs; s++ {
		lo := s * maxData
		hi := lo + maxData
		if hi > len(data) {
			hi = len(data)
		}
		c.eng.ep.CPU().Memcpy(hi - lo)
		c.acceptFrag(node, fragment{
			ctx: c.ctx, tag: tag, msgSeq: seq,
			segIdx: s, segCount: segs,
			body: append([]byte(nil), data[lo:hi]...),
		})
	}
}

// Irecv posts a nonblocking tagged receive. src may be AnySource and
// tag may be AnyTag; wildcards match application tags only. Any other
// tag must be non-negative, as for Send.
func (c *Comm) Irecv(src, tag int) *Request {
	if tag != AnyTag {
		c.checkUserTag(tag)
	}
	return c.irecv(src, tag)
}

// irecv posts a receive under any tag (collectives use negative tags).
func (c *Comm) irecv(src, tag int) *Request {
	if src != AnySource {
		c.node(src) // validate
	}
	c.eng.ep.CPU().Advance(postCost)
	req := &Request{src: src, tag: tag}
	// First, the unexpected queue, in arrival order (MPI matching
	// order: the earliest matching message wins).
	for i, m := range c.unexpected {
		if c.envelopeMatch(req, m) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			c.bind(req, m)
			return req
		}
	}
	c.posted = append(c.posted, req)
	return req
}

// Recv is the blocking tagged receive: post, wait, return payload and
// status.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	req := c.Irecv(src, tag)
	c.Wait(req)
	return req.data, req.status
}

// Wait blocks (pumping the FM layer) until the request completes. For
// receives it returns the payload and status; for sends both are
// zero-valued.
func (c *Comm) Wait(req *Request) ([]byte, Status) {
	for !req.done {
		c.eng.progress()
	}
	return req.data, req.status
}

// envelopeMatch reports whether a posted receive accepts a message.
// Wildcard tags never match internal (negative) tags.
func (c *Comm) envelopeMatch(req *Request, m *message) bool {
	if req.src != AnySource && req.src != m.srcRank {
		return false
	}
	if req.tag == m.tag {
		return true
	}
	return req.tag == AnyTag && m.tag >= 0
}

// bind attaches a message to its matched posting, completing the
// request if the message has fully arrived.
func (c *Comm) bind(req *Request, m *message) {
	m.req = req
	if m.complete() {
		c.finish(m)
	}
}

// finish completes a fully-arrived, matched message's request.
func (c *Comm) finish(m *message) {
	c.eng.ep.CPU().Advance(postCost)
	data := m.assemble()
	m.req.data = data
	m.req.status = Status{Source: m.srcRank, Tag: m.tag, Count: len(data)}
	m.req.done = true
}

// acceptFrag is the matching engine's entry: one in-order fragment from
// one source node. The first fragment of a message carries its
// envelope; matching happens then, so a posted receive is bound before
// reassembly finishes and unexpected messages queue in send order
// (per source), preserving MPI's non-overtaking rule.
func (c *Comm) acceptFrag(srcNode int, f fragment) {
	srcRank, member := c.ranks[srcNode]
	if !member {
		panic(fmt.Sprintf("mpi: fragment from node %d which is not in communicator ctx=%d", srcNode, c.ctx))
	}
	key := inflightKey{srcNode: srcNode, msgSeq: f.msgSeq}
	m := c.inflight[key]
	if m == nil {
		m = &message{srcRank: srcRank, tag: f.tag, segCount: f.segCount, segs: make([][]byte, f.segCount)}
		c.inflight[key] = m
		matched := false
		for i, req := range c.posted {
			if c.envelopeMatch(req, m) {
				c.posted = append(c.posted[:i], c.posted[i+1:]...)
				m.req = req
				matched = true
				break
			}
		}
		if !matched {
			c.unexpected = append(c.unexpected, m)
		}
	}
	if f.segIdx >= m.segCount || m.segs[f.segIdx] != nil {
		panic(fmt.Sprintf("mpi: bad or duplicate segment %d/%d from node %d", f.segIdx, m.segCount, srcNode))
	}
	m.segs[f.segIdx] = f.body
	m.got++
	if m.complete() {
		delete(c.inflight, key)
		if m.req != nil {
			c.finish(m)
		}
		// Unmatched complete messages stay in the unexpected queue
		// until a receive claims them.
	}
}

// --- Communicator construction ---

// Split partitions the communicator: members passing the same color
// form a new communicator, ranked by (key, old rank); a negative color
// returns nil (the member joins no group). Split is collective — every
// member must call it, and in the same order relative to other
// collectives on this communicator.
func (c *Comm) Split(color, key int) *Comm {
	// Deterministic child context: derived from the parent's context
	// and its creation counter, so every member computes the same id
	// without global coordination.
	c.nSplits++
	if c.nSplits >= 1<<8 || c.ctx >= 1<<24 {
		panic("mpi: communicator context space exhausted")
	}
	ctx := c.ctx<<8 | c.nSplits

	// Allgather (color, key) over the parent so every member sees the
	// full table. Root gathers, then broadcasts.
	gathered := c.gatherInts(0, []int{color, key})
	var flat []int
	if c.rank == 0 {
		flat = make([]int, 2*c.size())
		for i, pair := range gathered {
			flat[2*i], flat[2*i+1] = pair[0], pair[1]
		}
	}
	flat = c.bcastInts(0, flat)

	if color < 0 {
		return nil
	}
	type member struct{ key, rank int }
	var group []member
	for r := 0; r < c.size(); r++ {
		if flat[2*r] == color {
			group = append(group, member{key: flat[2*r+1], rank: r})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	nodes := make([]int, len(group))
	for i, m := range group {
		nodes[i] = c.nodes[m.rank]
	}
	return newComm(c.eng, ctx, nodes)
}
