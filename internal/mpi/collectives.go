package mpi

import (
	"encoding/binary"
	"math"
)

// The collectives are implemented on the matching engine itself — every
// transfer is an internal tagged send matched by an internal tagged
// receive — rather than on a separate handler, so they exercise exactly
// the machinery an MPI implementation layered on FM would. Algorithms
// are the classic binomial/dissemination ones: O(log N) rounds of
// messages, the short-message regime FM's low n1/2 targets.
//
// Internal tags are negative (below AnyTag), so they can never collide
// with application tags and receive wildcards never match them. Every
// collective invocation gets a fresh tag from the communicator's
// invocation counter; since collectives must be invoked in the same
// order by every member, the counters agree group-wide and a fast
// member's next collective cannot be confused with a slow member's
// current one.

// Op combines two reduction operands.
type Op func(a, b float64) float64

// Built-in reduction operators.
var (
	Sum  Op = func(a, b float64) float64 { return a + b }
	Prod Op = func(a, b float64) float64 { return a * b }
	Max  Op = math.Max
	Min  Op = math.Min
)

// collTag returns the internal tag for the next collective invocation.
func (c *Comm) collTag() int {
	c.collSeq++
	return -2 - int(c.collSeq)
}

// recvColl receives one internal-tagged message from a rank (exact
// negative tags pass straight through the ordinary matching path).
func (c *Comm) recvColl(src, tag int) []byte {
	data, _ := c.Wait(c.irecv(src, tag))
	return data
}

// Barrier blocks until every member has entered it (dissemination
// algorithm: ceil(log2 N) rounds of one empty message each).
func (c *Comm) Barrier() {
	tag := c.collTag()
	me, n := c.rank, c.size()
	for dist := 1; dist < n; dist *= 2 {
		c.isend((me+dist)%n, tag, nil)
		c.recvColl((me-dist+n)%n, tag)
	}
}

// Bcast distributes root's data to every member along a binomial tree;
// each member returns its own copy.
func (c *Comm) Bcast(root int, data []byte) []byte {
	tag := c.collTag()
	me, n := c.rank, c.size()
	rel := (me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (me - mask + n) % n
			data = c.recvColl(parent, tag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			c.isend((me+mask)%n, tag, data)
		}
	}
	return append([]byte(nil), data...)
}

// Reduce combines each member's vector element-wise with op along a
// binomial tree rooted at root; the result is returned at root (nil
// elsewhere). All members must pass vectors of the same length.
func (c *Comm) Reduce(root int, vals []float64, op Op) []float64 {
	tag := c.collTag()
	me, n := c.rank, c.size()
	rel := (me - root + n) % n
	acc := append([]float64(nil), vals...)

	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			child := rel | mask
			if child < n {
				theirs := decodeFloats(c.recvColl((child+root)%n, tag))
				if len(theirs) != len(acc) {
					panic("mpi: reduce length mismatch")
				}
				for i := range acc {
					acc[i] = op(acc[i], theirs[i])
				}
			}
		} else {
			parent := ((rel &^ mask) + root) % n
			c.isend(parent, tag, encodeFloats(acc))
			return nil
		}
	}
	return acc
}

// Allreduce gives every member the reduction result (reduce to rank 0,
// then broadcast).
func (c *Comm) Allreduce(vals []float64, op Op) []float64 {
	res := c.Reduce(0, vals, op)
	var wire []byte
	if c.rank == 0 {
		wire = encodeFloats(res)
	}
	return decodeFloats(c.Bcast(0, wire))
}

// Alltoall performs the personalized exchange: member i's data[j]
// arrives as member j's result[i]. Sends are staggered so the fabric
// sees a rotating permutation rather than N-1 senders converging on one
// port at once.
func (c *Comm) Alltoall(data [][]byte) [][]byte {
	if len(data) != c.size() {
		panic("mpi: Alltoall needs one buffer per member")
	}
	tag := c.collTag()
	me, n := c.rank, c.size()
	out := make([][]byte, n)
	out[me] = append([]byte(nil), data[me]...)
	for step := 1; step < n; step++ {
		c.isend((me+step)%n, tag, data[(me+step)%n])
	}
	for step := 1; step < n; step++ {
		src := (me - step + n) % n
		out[src] = c.recvColl(src, tag)
	}
	return out
}

// --- Split support: small int-vector gather/bcast on internal tags ---

// gatherInts collects every member's vector at root (indexed by rank;
// nil elsewhere). All vectors must have the same length.
func (c *Comm) gatherInts(root int, vals []int) [][]int {
	tag := c.collTag()
	if c.rank != root {
		c.isend(root, tag, encodeInts(vals))
		return nil
	}
	out := make([][]int, c.size())
	out[c.rank] = append([]int(nil), vals...)
	for r := 0; r < c.size(); r++ {
		if r != c.rank {
			out[r] = decodeInts(c.recvColl(r, tag))
		}
	}
	return out
}

// bcastInts distributes root's int vector to every member.
func (c *Comm) bcastInts(root int, vals []int) []int {
	var wire []byte
	if c.rank == root {
		wire = encodeInts(vals)
	}
	return decodeInts(c.Bcast(root, wire))
}

func encodeFloats(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func encodeInts(vals []int) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(int64(v)))
	}
	return out
}

func decodeInts(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}
