//go:build race

package dash

// raceEnabled reports whether the test binary was built with the race
// detector, which changes allocation counts.
const raceEnabled = true
