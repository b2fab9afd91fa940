package core

import (
	"context"
	"errors"
	"fmt"

	"phasefold/internal/exec"
)

// ErrBudget tags analysis failures caused by a resource budget, so strict-
// mode callers can dispatch with errors.Is and distinguish "the input is too
// big for the limits I set" from "the input is damaged".
var ErrBudget = errors.New("core: resource budget exceeded")

// ErrPanic tags analysis failures caused by a recovered panic. In lenient
// mode panics never surface as errors — they are isolated per rank and per
// cluster and reported as Diagnostics — but strict mode converts them into
// an error wrapping this sentinel.
var ErrPanic = errors.New("core: panic during analysis")

// Budget bounds what one analysis may consume; it is the shared exec.Budget,
// aliased here so existing core.Budget references keep working. The zero
// value imposes no limits. When a limit is exceeded, lenient mode downgrades
// to the degraded-mode machinery — the analysis continues on the share of
// the input that fits, every downgrade is recorded as a "budget" Diagnostic
// with a budget_exceeded:<stage> message, and affected clusters are graded
// below QualityOK — while Strict mode fails fast with an error wrapping
// ErrBudget.
type Budget = exec.Budget

// stageContext bounds ctx by the per-stage wall-clock budget. The returned
// cancel must always be called.
func stageContext(ctx context.Context, b Budget) (context.Context, context.CancelFunc) {
	if b.StageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, b.StageTimeout)
}

// stageBudgetExceeded reports whether err is a stage deadline firing rather
// than the caller's own context ending: absorbable in lenient mode,
// propagated otherwise.
func stageBudgetExceeded(parent context.Context, err error) bool {
	return err != nil && parent.Err() == nil && errors.Is(err, context.DeadlineExceeded)
}

// capture runs fn, converting a panic into an error wrapping ErrPanic so one
// pathological rank or cluster cannot take down the whole analysis (lenient
// mode turns the error into a Diagnostic; strict mode returns it).
func capture(stage string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %s: %v", ErrPanic, stage, p)
		}
	}()
	return fn()
}

// Failure-injection hooks for the execution-guard tests: when non-nil they
// run at the top of per-rank extraction and per-cluster fitting, inside the
// panic isolation boundary. Production code never sets them.
var (
	testHookExtract func(rank int)
	testHookFit     func(label int)
)
