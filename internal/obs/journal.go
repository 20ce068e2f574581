package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ErrTruncatedTail reports that a JSONL stream ended mid-line — the
// usual signature of a run killed while the journal writer was
// flushing. ReadJournal returns the parsed prefix alongside it, so
// callers can treat it as a warning rather than losing the whole read.
var ErrTruncatedTail = errors.New("truncated final line")

// journalBatch is the staging threshold: appended events accumulate in
// a per-journal staging buffer and are encoded to the stream in blocks
// of this size (or on Flush), so the hot path pays a slice append under
// the cheap ring mutex instead of a JSON encode per event. Kept small
// enough that drop accounting (and the obs_journal_dropped_total
// metric) surfaces within a handful of events of a dead writer.
const journalBatch = 8

// Journal is a ring-buffered structured event log. The newest Cap events
// are always retrievable with Events; when a writer is attached with
// StreamTo, every appended event is additionally encoded as one JSON
// line (JSONL), so a long session can be captured in full even though
// the ring only keeps the tail. Safe for concurrent use.
//
// Stream writes are batched: Append stages events under the ring mutex
// and every journalBatch-th append drains the batch to the encoder
// under a separate writer mutex, acquired before the ring mutex is
// released so concurrent drains encode in append order (FIFO). The
// ring itself is always up to date — only the stream lags by at most
// one partial batch, which Flush forces out.
type Journal struct {
	mu    sync.Mutex
	buf   []Event
	next  int   // ring write cursor
	n     int   // events currently held (≤ len(buf))
	total int64 // events ever appended
	pend  []Event
	spare []Event // retired batch buffer, reused by the next staging cycle

	wmu     sync.Mutex // serializes encoding; taken under mu, held after
	w       *json.Encoder
	flush   func() error
	werr    error
	dropped int64 // events not written to w because of a write error
}

// NewJournal returns a journal holding the newest capacity events
// (capacity < 1 is clamped to 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Event, capacity)}
}

// StreamTo attaches w: every subsequent Append is encoded to it as one
// JSON line, in append order, in blocks of journalBatch events. The
// first write error detaches nothing but is remembered (surfaced by
// Flush) and counts further events as dropped.
func (j *Journal) StreamTo(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wmu.Lock()
	defer j.wmu.Unlock()
	bw := bufio.NewWriter(w)
	j.w = json.NewEncoder(bw)
	j.flush = bw.Flush
}

// Append records one event.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.ringPut(e)
	if j.w == nil {
		j.mu.Unlock()
		return
	}
	j.pend = append(j.pend, e)
	if len(j.pend) < journalBatch {
		j.mu.Unlock()
		return
	}
	j.drain(false) // releases j.mu
}

// drain encodes the staged batch to the stream. Called with j.mu held;
// returns with it released. The writer mutex is acquired before the
// ring mutex is released so overlapping drains keep append order, and
// all encoding happens with only the writer mutex held — appenders
// never block on I/O. It returns a snapshot of (werr, dropped) taken
// after this batch settled.
func (j *Journal) drain(doFlush bool) (error, int64) {
	batch := j.pend
	if j.spare != nil {
		j.pend = j.spare[:0]
		j.spare = nil
	} else {
		j.pend = nil
	}
	j.wmu.Lock()
	j.mu.Unlock()
	newFail := false
	for _, e := range batch {
		if j.werr != nil {
			j.dropped++
			continue
		}
		if err := j.w.Encode(e); err != nil {
			j.werr = err
			j.dropped++
			newFail = true
		}
	}
	if doFlush && j.flush != nil && j.werr == nil {
		if err := j.flush(); err != nil {
			j.werr = err
			newFail = true
		}
	}
	werr, dropped := j.werr, j.dropped
	j.wmu.Unlock()

	// Retire the batch buffer for reuse and, on the first failure,
	// record the one-time ring marker. Both need the ring mutex, which
	// must be taken after wmu is released (lock order is mu → wmu).
	j.mu.Lock()
	if j.spare == nil && cap(batch) > 0 {
		j.spare = batch[:0]
	}
	if newFail {
		// One-time marker so the ring (still intact — only the stream
		// is broken) records when and why drops began. It is
		// deliberately not sent to the dead writer.
		drop := NewEvent("journal.drop").WithStr("error", werr.Error())
		drop.T = time.Now()
		j.ringPut(drop)
	}
	j.mu.Unlock()
	return werr, dropped
}

// ringPut inserts one event into the ring. Callers hold j.mu.
func (j *Journal) ringPut(e Event) {
	j.buf[j.next] = e
	j.next = (j.next + 1) % len(j.buf)
	if j.n < len(j.buf) {
		j.n++
	}
	j.total++
}

// Events returns the held events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	start := j.next - j.n
	if start < 0 {
		start += len(j.buf)
	}
	for i := 0; i < j.n; i++ {
		out = append(out, j.buf[(start+i)%len(j.buf)])
	}
	return out
}

// Len returns how many events the ring currently holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Total returns how many events have ever been appended (overwritten
// ring slots included).
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns how many events were not written to the attached
// stream because of a write error (see StreamTo). Exposed as the
// obs_journal_dropped_total metric by New.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.wmu.Lock()
	defer j.wmu.Unlock()
	return j.dropped
}

// Overwritten returns how many events the ring has discarded.
func (j *Journal) Overwritten() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total - int64(j.n)
}

// Flush drains any partially staged batch to the attached stream
// writer, flushes it, and returns the first stream write error
// encountered (nil when streaming is off or healthy).
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.w == nil {
		j.mu.Unlock()
		return nil
	}
	werr, dropped := j.drain(true) // releases j.mu
	if werr != nil {
		return fmt.Errorf("obs: journal stream: %w (%d events dropped)", werr, dropped)
	}
	return nil
}

// ReadJournal decodes a JSONL journal stream (as produced by StreamTo)
// into events, in order. Blank lines are skipped; a malformed line in
// the middle of the stream stops the read with an error naming its line
// number. A malformed FINAL line — the signature of a run killed
// mid-write — returns the parsed prefix wrapped around ErrTruncatedTail
// so callers can keep the events and downgrade the error to a warning.
func ReadJournal(r io.Reader) ([]Event, error) {
	return readJSONL[Event](r, "journal", 4<<20)
}

// readJSONL decodes a JSONL stream of T, in order, with lines of up to
// maxLine bytes. Blank lines are skipped, so a malformed line is final —
// ErrTruncatedTail — when no non-blank line follows it.
func readJSONL[T any](r io.Reader, what string, maxLine int) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	line, bad := 0, 0
	var badErr error
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if badErr != nil {
			return out, fmt.Errorf("obs: %s line %d: %w", what, bad, badErr)
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			bad, badErr = line, err
			continue
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: %s read: %w", what, err)
	}
	if badErr != nil {
		return out, fmt.Errorf("obs: %s line %d: %w", what, bad, ErrTruncatedTail)
	}
	return out, nil
}
