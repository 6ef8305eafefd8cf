//go:build race

package core

// raceEnabled reports that this binary was built with -race, whose
// shadow memory and bookkeeping the retained-heap guard must not count.
const raceEnabled = true
