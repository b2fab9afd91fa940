package callstack

import (
	"math/bits"
	"math/rand/v2"
)

// StackID indexes an interned stack in an Interner.
type StackID int32

// NoStack marks a sample without a captured call stack.
const NoStack StackID = -1

// Interner deduplicates call-stack snapshots. Iterative HPC codes revisit
// the same few hundred distinct stacks millions of times, so interning keeps
// trace memory proportional to the code structure rather than the sample
// count — the same trick Extrae's sample buffers use.
type Interner struct {
	seed   uint64
	stacks []Stack
	frames []Frame // the stacks' frames back to back; each stack is a window
	index  map[uint64][]StackID
	ids    []StackID // ids[i] == i; a one-stack bucket is a window into it
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{seed: rand.Uint64(), index: make(map[uint64][]StackID)}
}

// hash mixes a stack's frames field by field into a random per-interner
// seed. Fields, never the struct's bytes: Frame carries padding whose
// content is unspecified, so equal stacks must hash from their fields alone
// to share an identifier. The seed keeps stacks crafted offline (the
// tables come from untrusted input) from sharing a bucket, which would make
// Intern's bucket scan quadratic. Identifiers never depend on the hash:
// they are handed out in insertion order.
func (in *Interner) hash(s Stack) uint64 {
	h := in.seed ^ uint64(len(s))
	for _, f := range s {
		h = mix(h ^ uint64(uint32(f.Routine)))
		h = mix(h ^ uint64(f.Line))
	}
	return h
}

// mix is a 64-bit multiply-fold step (wyhash's mum): full avalanche for
// the few machine words a stack holds.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0xa0761d6478bd642f, 0xe7037ed1a0b428db)
	return hi ^ lo
}

// Intern registers the stack (copying it) and returns its identifier.
// Interning an identical stack returns the existing identifier. The copy
// goes into frames, so a table of thousands of stacks costs a few growing
// allocations rather than one each; every stored stack is capacity-limited,
// and windows into a grown-out array stay valid.
func (in *Interner) Intern(s Stack) StackID {
	h := in.hash(s)
	bucket := in.index[h]
	for _, id := range bucket {
		if in.stacks[id].Equal(s) {
			return id
		}
	}
	id := StackID(len(in.stacks))
	start := len(in.frames)
	in.frames = append(in.frames, s...)
	in.stacks = append(in.stacks, in.frames[start:len(in.frames):len(in.frames)])
	in.ids = append(in.ids, id)
	if len(bucket) == 0 {
		// Most buckets hold one stack: share ids' storage instead of
		// allocating a slice per stack. The capacity limit makes a
		// colliding stack's append copy the bucket out.
		in.index[h] = in.ids[id : id+1 : id+1]
	} else {
		in.index[h] = append(bucket, id)
	}
	return id
}

// Get returns the stack for id. The second result is false for NoStack or
// out-of-range identifiers. The returned slice is shared; callers must not
// modify it.
func (in *Interner) Get(id StackID) (Stack, bool) {
	if id < 0 || int(id) >= len(in.stacks) {
		return nil, false
	}
	return in.stacks[id], true
}

// Len returns the number of distinct stacks interned.
func (in *Interner) Len() int { return len(in.stacks) }

// All returns the interned stacks in identifier order. Shared storage; do
// not modify.
func (in *Interner) All() []Stack { return in.stacks }
