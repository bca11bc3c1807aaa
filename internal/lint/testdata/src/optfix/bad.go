package optfix

// WithVerbose is an option no shipped program sets.
func WithVerbose() EvalOption { // want `option WithVerbose has no use outside tests`
	return func(c *config) { c.on = true }
}

// withTwice only refers to itself: a recursive use does not count.
func withTwice(n int) Option { // want `option withTwice has no use outside tests`
	if n > 0 {
		return withTwice(n - 1)
	}
	return func(c *config) error { c.n *= 2; return nil }
}
