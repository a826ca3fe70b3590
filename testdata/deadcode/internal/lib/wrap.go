package lib

import "errors"

// wrapped is an error that only errors.Is and errors.As look into.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }

// Unwrap, Is and As are called only by errors.Is and errors.As, through
// interfaces declared inside functions of package errors: exempt.
func (w wrapped) Unwrap() error { return w.err }

func (w wrapped) Is(target error) bool { return false }

func (w wrapped) As(target any) bool { return false }

var errBase = errors.New("base")

// IsBase reports whether a wrapped base error is the base error and holds
// a wrapped error.
func IsBase() bool {
	var w wrapped
	return errors.Is(wrapped{errBase}, errBase) && errors.As(wrapped{errBase}, &w)
}
