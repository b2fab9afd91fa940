package trace

import (
	"context"
	"errors"
	"io"
)

// Structured error taxonomy of the trace container. Decode, DecodeText
// and Validate wrap these sentinels so callers can dispatch with
// errors.Is instead of string matching — the CLIs map them to exit codes,
// and the degraded-mode analyzer decides per sentinel whether a rank is
// recoverable.

// ErrFormat is the umbrella sentinel for every way an input can fail to be
// a usable trace: errors.Is(err, ErrFormat) matches bad magic, truncation,
// corruption, missing ranks, and invariant violations alike, so callers
// that only care about "the input, not my code or my deadline" need one
// check instead of five.
var ErrFormat = errors.New("trace: malformed input")

// formatError is a sentinel that additionally matches ErrFormat under
// errors.Is while keeping its own message (no "malformed input:" prefix on
// every rejection).
type formatError struct{ msg string }

func (e *formatError) Error() string { return e.msg }

func (e *formatError) Is(target error) bool { return target == ErrFormat }

var (
	// ErrBadMagic marks input that is not a trace container at all.
	ErrBadMagic error = &formatError{"trace: bad magic"}
	// ErrTruncated marks a well-formed stream that ends mid-record.
	ErrTruncated error = &formatError{"trace: truncated input"}
	// ErrCorrupt marks a stream whose content violates the format
	// (impossible counts, unresolvable references, malformed records).
	ErrCorrupt error = &formatError{"trace: corrupt input"}
	// ErrNoRanks marks a decoded container carrying no process data.
	ErrNoRanks error = &formatError{"trace: no ranks"}
	// ErrInvalid marks a structurally decodable trace that violates the
	// container invariants (record order, nesting, references).
	ErrInvalid error = &formatError{"trace: invalid structure"}
)

// classifyRead maps a low-level read error onto the taxonomy: EOF variants
// mean the stream stopped early (truncation), anything else means the bytes
// could not be interpreted (corruption). Errors already carrying a sentinel
// pass through unchanged.
func classifyRead(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrBadMagic) || errors.Is(err, ErrNoRanks) || errors.Is(err, ErrInvalid) {
		return err
	}
	// Cancellation is the caller's deadline firing, not a statement about the
	// input; it must stay matchable as context.Canceled/DeadlineExceeded.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.Join(ErrTruncated, err)
	}
	return errors.Join(ErrCorrupt, err)
}
