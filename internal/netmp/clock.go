package netmp

import "time"

// Clock supplies the package's notion of wall time. The nil Clock reads
// time.Now, so zero-valued configs behave exactly as before; tests
// inject a fake to make journal timestamps and duration metrics
// deterministic. The same clock that timestamps telemetry also feeds
// socket deadlines, so an injected clock should stay within shouting
// distance of real time when real I/O is involved (a fixed clock
// captured at test start works: deadlines land in the real future and
// every recorded duration collapses to zero).
type Clock func() time.Time

// now resolves the clock, defaulting to time.Now.
func (c Clock) now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c()
}
