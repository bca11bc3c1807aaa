// Package optfix is fpdead's root-package fixture: it stands for a
// module's public API, where only options are checked. bad.go declares
// options no non-test code sets; good.go's declarations stay silent.
package optfix

type config struct {
	n  int
	on bool
}

// Option configures a system.
type Option func(*config) error

// EvalOption configures an evaluation.
type EvalOption func(*config)

// The package-level initializer stands for a shipped program: it sets
// WithN and WithOn.
var _ = New(WithN(3)).Evaluate(WithOn())

// New is no option: an exported root function nothing calls stays silent.
func New(opts ...Option) *config {
	c := &config{}
	for _, o := range opts {
		_ = o(c)
	}
	return c
}

// Evaluate is a method returning no option.
func (c *config) Evaluate(opts ...EvalOption) int {
	for _, o := range opts {
		o(c)
	}
	return c.n
}

// Unused is no option, so the root rule does not look at it.
func Unused() int { return 1 }

// WithN sets n.
func WithN(n int) Option {
	return func(c *config) error { c.n = n; return nil }
}

// WithOn sets on.
func WithOn() EvalOption {
	return func(c *config) { c.on = true }
}

// plain returns an unnamed function type, which is no option.
func plain() func(*config) { return nil }
