//go:build race

package obs

// raceEnabled reports whether the test binary was built with the race
// detector, which slows instrumented code unevenly and so breaks a bound
// on one loop's time relative to another's.
const raceEnabled = true
