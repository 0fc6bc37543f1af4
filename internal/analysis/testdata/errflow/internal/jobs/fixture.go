package jobs

import (
	"errors"
	"fmt"
)

var ErrGone = errors.New("worker gone")

type planError struct{ job int }

func (e *planError) Error() string { return "plan failed" }

// --- sentinel comparisons ------------------------------------------------

func compareEq(err error) bool {
	return err == ErrGone // want `sentinel error compared with ==: wrapping \(fmt\.Errorf %w\) breaks identity comparison; use errors\.Is\(err, ErrGone\)`
}

func compareNeq(err error) bool {
	return err != ErrGone // want `sentinel error compared with !=: wrapping \(fmt\.Errorf %w\) breaks identity comparison; use !errors\.Is\(err, ErrGone\)`
}

func compareFlipped(err error) bool {
	return ErrGone == err // want `sentinel error compared with ==`
}

func compareTyped(err error, sentinel *planError) bool {
	return err == sentinel // want `sentinel error compared with ==`
}

func compareNil(err error) bool {
	return err == nil // ok: nil checks are idiomatic
}

func compareIs(err error) bool {
	return errors.Is(err, ErrGone) // ok
}

// --- fmt.Errorf wrapping -------------------------------------------------

func wrapV(err error) error {
	return fmt.Errorf("submit: %v", err) // want `fmt\.Errorf formats an error without %w: the cause is flattened to text`
}

func wrapS(name string, err error) error {
	return fmt.Errorf("job %s failed: %s", name, err) // want `fmt\.Errorf formats an error without %w`
}

func wrapTwo(a, b error) error {
	return fmt.Errorf("run: %v; cleanup: %v", a, b) // want `fmt\.Errorf formats an error without %w`
}

func wrapOK(err error) error {
	return fmt.Errorf("submit: %w", err) // ok
}

func wrapOneOfTwo(name string, err error) error {
	return fmt.Errorf("job %s: %w", name, err) // ok
}

func noErrArg(n int) error {
	return fmt.Errorf("bad worker count %d", n) // ok: no error argument
}

func errString(err error) string {
	return fmt.Sprintf("note: %v", err) // ok: Sprintf does not build an error chain
}
