// Package lib is the reachability gate's fixture: one declaration per rule.
package lib

import "strconv"

// Shape is live through main; String is never called by name but keeps
// Shape a fmt.Stringer.
type Shape struct{ Sides int }

func (s Shape) String() string { return strconv.Itoa(s.Sides) + "-gon" }

// table is a package-level var no function reads, and still a root:
// viaVar is live only through its initializer.
var table = map[string]func() int{"tri": viaVar}

func viaVar() int { return 3 }

// Dead is called by nothing; deadHelper only by Dead.
func Dead() int { return deadHelper() }

func deadHelper() int { return 1 }
