package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// jsonlReaders are the two JSONL readers, each reduced to its event count.
var jsonlReaders = []struct {
	name string
	read func(io.Reader) (int, error)
}{
	{"journal", func(r io.Reader) (int, error) { ev, err := ReadJournal(r); return len(ev), err }},
	{"trace", func(r io.Reader) (int, error) { recs, err := ReadTraceJSONL(r); return len(recs), err }},
}

// errClass is what a caller of a JSONL reader tells apart: a clean read,
// a truncated tail it may downgrade to a warning, and a hard error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTruncatedTail):
		return "truncated tail"
	}
	return "hard"
}

// TestReadJSONLTails: both readers skip blank lines, so a malformed line
// that only blank lines follow is a truncated tail, and one that any other
// line follows is a hard error naming its line.
func TestReadJSONLTails(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		n        int
		class    string
		line     string // a hard error names it
	}{
		{"clean", `{"kind":"a"}` + "\n" + `{"kind":"b"}` + "\n", 2, "nil", ""},
		{"clean, trailing blank lines", `{"kind":"a"}` + "\n\n\n", 1, "nil", ""},
		{"empty", "", 0, "nil", ""},
		{"truncated tail", `{"kind":"a"}` + "\n" + `{"kin`, 1, "truncated tail", ""},
		{"truncated tail, then blank lines", `{"kind":"a"}` + "\n" + `{"kin` + "\n\n", 1, "truncated tail", ""},
		{"truncated tail, then CRLF blank lines", `{"kind":"a"}` + "\r\n" + `{"kin` + "\r\n\r\n", 1, "truncated tail", ""},
		{"malformed, then a line", `{"kind":"a"}` + "\n" + "not json\n\n" + `{"kind":"b"}` + "\n", 1, "hard", "line 2"},
		{"malformed, blank lines, then a line", "\n\n{oops}\n\n\n" + `{"kind":"b"}`, 0, "hard", "line 3"},
	} {
		for _, rd := range jsonlReaders {
			t.Run(tc.name+"/"+rd.name, func(t *testing.T) {
				n, err := rd.read(strings.NewReader(tc.in))
				if n != tc.n || errClass(err) != tc.class {
					t.Fatalf("%d events, err %v; want %d, %s", n, err, tc.n, tc.class)
				}
				if tc.line != "" && !strings.Contains(err.Error(), tc.line) {
					t.Errorf("error does not name %s: %v", tc.line, err)
				}
			})
		}
	}
}

func FuzzReadJournal(f *testing.F) { fuzzJSONL(f, ReadJournal) }

func FuzzReadTraceJSONL(f *testing.F) { fuzzJSONL(f, ReadTraceJSONL) }

// fuzzJSONL holds a JSONL reader to three properties: it never panics;
// blank lines appended change neither its events nor its error class; and
// a clean stream cut at any byte reads as a prefix of its events, with nil
// or a truncated tail. The committed corpus is in testdata/fuzz.
func fuzzJSONL[T any](f *testing.F, read func(io.Reader) ([]T, error)) {
	f.Fuzz(func(t *testing.T, in []byte, cut uint) {
		whole, err := read(bytes.NewReader(in))
		padded, perr := read(bytes.NewReader(append(in[:len(in):len(in)], "\n\n\r\n"...)))
		if !sameJSON(padded, whole) || errClass(perr) != errClass(err) {
			t.Fatalf("blank lines appended: %d events, err %v; before, %d events, err %v", len(padded), perr, len(whole), err)
		}
		if err != nil {
			return
		}
		k := int(cut % uint(len(in)+1))
		part, cerr := read(bytes.NewReader(in[:k]))
		if c := errClass(cerr); c == "hard" {
			t.Fatalf("cut at %d of %d: hard error %v", k, len(in), cerr)
		}
		if len(part) > len(whole) || !sameJSON(part, whole[:len(part)]) {
			t.Fatalf("cut at %d of %d: %d events, not a prefix of the whole stream's %d", k, len(in), len(part), len(whole))
		}
	})
}

// sameJSON reports whether a and b encode alike. The encoder sorts map
// keys, so unlike reflect.DeepEqual it walks them in one order and the
// fuzzer's coverage of it repeats.
func sameJSON[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
