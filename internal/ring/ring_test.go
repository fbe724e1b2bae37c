package ring

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	r := New[int]("q", 4)
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	if !r.Full() {
		t.Fatal("expected full")
	}
	for i := 0; i < 4; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !r.Empty() {
		t.Fatal("expected empty")
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int]("q", 3)
	next := 0
	for round := 0; round < 10; round++ {
		r.Push(next)
		r.Push(next + 1)
		if got := r.Pop(); got != next {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, next)
		}
		if got := r.Pop(); got != next+1 {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, next+1)
		}
		next += 2
	}
}

func TestCountersTrail(t *testing.T) {
	r := New[string]("q", 8)
	r.Push("a")
	r.Push("b")
	r.Pop()
	if r.Produced() != 2 || r.Consumed() != 1 {
		t.Fatalf("produced=%d consumed=%d", r.Produced(), r.Consumed())
	}
	// The paper: the consumer counter "always trails the hostsent counter
	// by the number of packets in the queue."
	if r.Produced()-r.Consumed() != uint64(r.Len()) {
		t.Fatal("counter invariant violated")
	}
}

func TestPushFullPanics(t *testing.T) {
	r := New[int]("q", 1)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Push(2)
}

func TestPopEmptyPanics(t *testing.T) {
	r := New[int]("q", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Pop()
}

func TestTryVariants(t *testing.T) {
	r := New[int]("q", 1)
	if !r.TryPush(7) {
		t.Fatal("TryPush on empty should succeed")
	}
	if r.TryPush(8) {
		t.Fatal("TryPush on full should fail")
	}
	if v := r.Pop(); v != 7 || !r.Empty() {
		t.Fatalf("Pop = %d, empty %v after a refused TryPush", v, r.Empty())
	}
}

func TestPeek(t *testing.T) {
	r := New[int]("q", 4)
	r.Push(10)
	r.Push(20)
	if r.Peek() != 10 {
		t.Fatal("Peek should see oldest")
	}
	if r.Len() != 2 {
		t.Fatal("Peek must not consume")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New[int]("q", 0)
}

// Property: a ring behaves exactly like a bounded slice-based FIFO under
// an arbitrary push/pop program.
func TestRingMatchesOracle(t *testing.T) {
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		r := New[int]("q", capacity)
		var oracle []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 { // push
				ok := r.TryPush(next)
				wantOK := len(oracle) < capacity
				if ok != wantOK {
					return false
				}
				if ok {
					oracle = append(oracle, next)
				}
				next++
			} else { // pop
				if r.Empty() != (len(oracle) == 0) {
					return false
				}
				if !r.Empty() {
					if r.Pop() != oracle[0] {
						return false
					}
					oracle = oracle[1:]
				}
			}
			if r.Len() != len(oracle) || r.Full() != (len(oracle) == capacity) {
				return false
			}
			if r.Produced()-r.Consumed() != uint64(len(oracle)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
