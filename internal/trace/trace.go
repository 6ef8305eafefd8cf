// Package trace provides instruction-trace plumbing: the stream
// abstraction consumed by the simulator, an in-memory stream, a
// compact binary on-disk format with delta/varint encoding (the
// "trace tape" of the paper's methodology), and trace statistics.
package trace

import (
	"errors"

	"repro/internal/isa"
)

// ErrExhausted is returned by streams that cannot be rewound.
var ErrExhausted = errors.New("trace: stream exhausted")

// Stream supplies dynamic instructions in program order. Next returns
// the next instruction and true, or a zero instruction and false at
// end of trace. Implementations need not be safe for concurrent use.
type Stream interface {
	Next() (isa.Instruction, bool)
}

// Resettable is implemented by streams that can restart from the
// beginning, allowing one trace to be replayed across pipeline
// depths.
type Resettable interface {
	Stream
	Reset()
}

// SliceStream replays a materialized instruction slice.
type SliceStream struct {
	ins []isa.Instruction
	pos int
}

// NewSliceStream returns a resettable stream over ins. The slice is
// not copied; callers must not mutate it while streaming.
func NewSliceStream(ins []isa.Instruction) *SliceStream {
	return &SliceStream{ins: ins}
}

// Next implements Stream.
func (s *SliceStream) Next() (isa.Instruction, bool) {
	if s.pos >= len(s.ins) {
		return isa.Instruction{}, false
	}
	in := s.ins[s.pos]
	s.pos++
	return in, true
}

// Reset implements Resettable.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the stream.
func (s *SliceStream) Len() int { return len(s.ins) }

// Collect drains up to limit instructions from a stream into a slice
// (limit ≤ 0 drains everything).
func Collect(s Stream, limit int) []isa.Instruction {
	var out []isa.Instruction
	for limit <= 0 || len(out) < limit {
		in, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}

// LimitStream caps an underlying stream at n instructions.
type LimitStream struct {
	src  Stream
	left int
}

// NewLimitStream returns a stream yielding at most n instructions
// from src.
func NewLimitStream(src Stream, n int) *LimitStream {
	return &LimitStream{src: src, left: n}
}

// Len returns the most instructions the stream can still yield (fewer
// if the source ends first).
func (l *LimitStream) Len() int { return max(l.left, 0) }

// Next implements Stream.
func (l *LimitStream) Next() (isa.Instruction, bool) {
	if l.left <= 0 {
		return isa.Instruction{}, false
	}
	in, ok := l.src.Next()
	if ok {
		l.left--
	}
	return in, ok
}
