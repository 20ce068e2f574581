package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mpdash/internal/obs"
)

// span is one call the harness made into a layer. Parent is the span
// that caused it (0 = none); Ref names the session or chunk, so the
// spans of one request share an identifier.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Ref     string `json:"ref,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// recorder keeps boundary spans in memory until the run ends. A nil
// recorder is the off switch (the timed pass): begin returns a no-op.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id and the function that ends it.
func (r *recorder) begin(name string, parent int64, ref string) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Name: name, Ref: ref,
		StartUS: start.Sub(r.t0).Microseconds(), DurUS: -1})
	id := int64(len(r.spans))
	r.mu.Unlock()
	return id, func() {
		d := time.Since(start).Microseconds()
		r.mu.Lock()
		r.spans[id-1].DurUS = d
		r.mu.Unlock()
	}
}

// importTraces files the span traces the program's own tracer kept
// under parent: one span per chunk trace, its recorded spans beneath it.
func (r *recorder) importTraces(parent int64, recs []*obs.TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add := func(s span) int64 {
		s.ID = int64(len(r.spans) + 1)
		r.spans = append(r.spans, s)
		return s.ID
	}
	for _, tr := range recs {
		ref := fmt.Sprintf("s%dc%dl%d", tr.Session, tr.Chunk, tr.Level)
		start := tr.StartUS - r.t0.UnixMicro()
		chunk := add(span{Parent: parent, Name: "trace." + tr.Verdict, Ref: ref, StartUS: start, DurUS: tr.DurUS})
		for _, sp := range tr.Spans {
			add(span{Parent: chunk, Name: sp.Category + "." + sp.Name, Ref: ref, StartUS: start + sp.StartUS, DurUS: sp.DurUS})
		}
	}
}

// durationsMS returns the durations of every finished span called name.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name && s.DurUS >= 0 {
			out = append(out, float64(s.DurUS)/1e3)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
