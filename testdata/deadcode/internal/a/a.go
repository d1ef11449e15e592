// Package a is the dead-code guard's fixture: each dead declaration
// shares its name with a live one.
package a

// T.Len is called only by a test.
type T struct{ n int }

func (t T) Len() int { return t.n }

// U.Len is called by main.
type U struct{ n int }

func (u U) Len() int { return u.n }

// Options.Depth is set only by a test; Config.Depth is set by main.
type Options struct{ Depth int }

type Config struct{ Depth int }

func Run(o Options, c Config) int { return o.Depth + c.Depth }

// Sizer.Size is called; V.Size is reached only through it.
type Sizer interface{ Size() int }

type V struct{}

func (V) Size() int { return 1 }

func Measure(s Sizer) int { return s.Size() }
