package deadfix

import (
	"fmt"
	"sort"
)

// The package-level initializer is the fixture's root: it uses Entry.
var _ = Entry()

func init() {}

func _() {}

// Entry reaches every declaration below, directly or through an interface.
func Entry() string {
	names := byLen{"ccc", "a", "bb"}
	sort.Sort(names)
	var s shape = square(2)
	var t tally
	use := t.add // a method value is a use
	use(3)
	return first(names) + fmt.Sprint(level(2), s.Area(), oops{}) + fmt.Sprint(t)
}

func first(ns byLen) string { return ns[0] }

func (t *tally) add(n int) { t.n += n }

// byLen satisfies sort.Interface: sort.Sort is the only caller of its
// methods.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// level satisfies fmt.Stringer; nothing calls String by name.
type level int

func (l level) String() string { return fmt.Sprintf("L%d", int(l)) }

// oops satisfies error.
type oops struct{}

func (oops) Error() string { return "oops" }

// shape is satisfied by square, whose Area the interface call reaches.
type shape interface{ Area() float64 }

type square float64

func (s square) Area() float64 { return float64(s * s) }
