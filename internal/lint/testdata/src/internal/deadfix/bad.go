// Package deadfix is fpdead's fixture: bad.go declares functions and
// methods no non-test code uses; good.go's declarations stay silent.
package deadfix

// Unused is exported, which does not keep it alive.
func Unused() int { return 1 } // want `func Unused has no use outside tests`

func unused() int { return 2 } // want `func unused has no use outside tests`

// countdown only calls itself: a recursive use does not count.
func countdown(n int) int { // want `func countdown has no use outside tests`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

type tally struct{ n int }

// Bump is a method no caller reaches and no interface asks for.
func (t *tally) Bump() { t.n++ } // want `method tally.Bump has no use outside tests`

func (t tally) total() int { return t.n } // want `method tally.total has no use outside tests`
