package dash

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecodeMPD parses a manifest in one pass over the XML that EncodeMPD
// writes and the variations a hand-edited or foreign MPD brings: any
// attribute order, either quote style, whitespace and line endings, an
// XML declaration, comments, the five predefined and the numeric
// character references, and unknown elements and attributes, skipped
// where encoding/xml's Unmarshal skips them. It returns an error for any
// other markup (CDATA, DOCTYPE, processing instructions, namespace
// prefixes, non-ASCII names) and for anything encoding/xml rejects, so a
// manifest it accepts decodes to the MPD that Unmarshal returns
// (FuzzDecodeMPD holds it to that). Like Unmarshal it stops at the root
// element's end tag. String fields share one copy of b.
func DecodeMPD(b []byte) (*MPD, error) {
	d := mpdScanner{s: string(b)}
	m := d.mpd()
	if d.err != nil {
		return nil, fmt.Errorf("dash: parsing MPD: %w", d.err)
	}
	return m, nil
}

// mpdScanner walks the document as a cursor. Each element has its own
// method, which reads its start tag's attributes with attr and its
// content with child; what it does not know it hands to skip, which
// checks the element's syntax as Unmarshal does and drops it. The first
// error sticks: after it every step reports nothing more.
type mpdScanner struct {
	s     string
	i     int
	err   error
	empty bool     // the start tag just read was self-closing
	buf   []byte   // a value being unescaped
	open  []string // skip's stack of open element names
}

func (d *mpdScanner) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: %s", d.i, fmt.Sprintf(format, args...))
	}
}

func (d *mpdScanner) mpd() *MPD {
	d.prolog()
	if d.err != nil {
		return nil
	}
	if name := d.startTag(); name != "MPD" {
		d.fail("root element is <%s>, want <MPD>", name)
		return nil
	}
	m := &MPD{}
	for name, v, ok := d.attr(); ok; name, v, ok = d.attr() {
		switch name {
		case "profiles":
			m.Profiles = v
		case "type":
			m.Type = v
		case "mediaPresentationDuration":
			m.MediaPresentationDuration = v
		}
	}
	for name, ok := d.child("MPD"); ok; name, ok = d.child("MPD") {
		if name != "Period" {
			d.skip(name)
			continue
		}
		// A second Period reads into the first, as in Unmarshal.
		d.skipAttrs()
		for name, ok := d.child("Period"); ok; name, ok = d.child("Period") {
			if name == "AdaptationSet" {
				d.adaptationSet(&m.Period.AdaptationSet)
			} else {
				d.skip(name)
			}
		}
	}
	return m
}

func (d *mpdScanner) adaptationSet(as *AdaptationSet) {
	for name, v, ok := d.attr(); ok; name, v, ok = d.attr() {
		switch name {
		case "mimeType":
			as.MimeType = v
		case "segmentDurationSeconds":
			as.SegmentDuration = d.float(v)
		}
	}
	for name, ok := d.child("AdaptationSet"); ok; name, ok = d.child("AdaptationSet") {
		if name != "Representation" {
			d.skip(name)
			continue
		}
		as.Representations = append(as.Representations, Representation{})
		d.representation(&as.Representations[len(as.Representations)-1])
	}
}

func (d *mpdScanner) representation(r *Representation) {
	for name, v, ok := d.attr(); ok; name, v, ok = d.attr() {
		switch name {
		case "id":
			r.ID = int(d.int(v, strconv.IntSize))
		case "bandwidth":
			r.Bandwidth = d.int(v, 64)
		}
	}
	for name, ok := d.child("Representation"); ok; name, ok = d.child("Representation") {
		if name != "SegmentList" {
			d.skip(name)
			continue
		}
		// Segments are the path SegmentList>SegmentURL: the list's own
		// attributes mean nothing, and a second list appends.
		d.skipAttrs()
		for name, ok := d.child("SegmentList"); ok; name, ok = d.child("SegmentList") {
			if name != "SegmentURL" {
				d.skip(name)
				continue
			}
			var s Segment
			for name, v, ok := d.attr(); ok; name, v, ok = d.attr() {
				switch name {
				case "media":
					s.Media = v
				case "size":
					s.Size = d.int(v, 64)
				}
			}
			r.Segments = append(r.Segments, s)
			d.skipContent("SegmentURL")
		}
	}
}

// int and float convert an attribute value as Unmarshal does: empty is
// zero, and surrounding white space is trimmed.
func (d *mpdScanner) int(v string, bits int) int64 {
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, bits)
	if err != nil {
		d.fail("%v", err)
	}
	return n
}

func (d *mpdScanner) float(v string) float64 {
	if v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		d.fail("%v", err)
	}
	return f
}

// prolog reads an optional XML declaration at the very start, then
// white space and comments up to the root's '<'.
func (d *mpdScanner) prolog() {
	if strings.HasPrefix(d.s, "<?xml") && len(d.s) > 5 && (isSpace(d.s[5]) || d.s[5] == '?') {
		d.i = 5
		d.declaration()
	}
	for d.err == nil {
		d.space()
		if !strings.HasPrefix(d.s[d.i:], "<!--") {
			break
		}
		d.comment()
	}
}

// declaration reads `version="1.0"`, `encoding="UTF-8"` (any case) and
// `standalone="yes|no"` pseudo-attributes up to "?>". encoding/xml reads
// only the version and the encoding and fails on any other value of
// either; other pseudo-attributes are refused here.
func (d *mpdScanner) declaration() {
	for d.err == nil {
		spaced := d.space()
		if strings.HasPrefix(d.s[d.i:], "?>") {
			d.i += 2
			return
		}
		name := d.name()
		if !spaced || d.err != nil || !strings.HasPrefix(d.s[d.i:], "=") {
			d.fail("malformed XML declaration")
			return
		}
		d.i++
		_, v := d.quoted() // encoding/xml compares the raw text
		switch {
		case name == "version" && v == "1.0",
			name == "encoding" && strings.EqualFold(v, "utf-8"),
			name == "standalone" && (v == "yes" || v == "no"):
		default:
			d.fail("XML declaration %s=%q not supported", name, v)
		}
	}
}

// comment reads "<!--" to the first "--", which must close it.
func (d *mpdScanner) comment() {
	j := strings.Index(d.s[d.i+4:], "--")
	if j < 0 {
		d.i = len(d.s)
		d.fail("unterminated comment")
		return
	}
	d.i += 4 + j + 2
	if !strings.HasPrefix(d.s[d.i:], ">") {
		d.fail(`"--" inside a comment`)
		return
	}
	d.i++
}

// startTag reads '<' and an element name.
func (d *mpdScanner) startTag() string {
	if !strings.HasPrefix(d.s[d.i:], "<") {
		d.fail("want a start tag")
		return ""
	}
	d.i++
	return d.name()
}

// attr reads the next attribute of the start tag being read and returns
// its unescaped value; ok is false once the tag closes.
func (d *mpdScanner) attr() (name, value string, ok bool) {
	if d.err != nil {
		return "", "", false
	}
	d.space()
	switch rest := d.s[d.i:]; {
	case strings.HasPrefix(rest, ">"):
		d.i++
		return "", "", false
	case strings.HasPrefix(rest, "/>"):
		d.i += 2
		d.empty = true
		return "", "", false
	}
	name = d.name()
	d.space()
	if d.err != nil || !strings.HasPrefix(d.s[d.i:], "=") {
		d.fail("attribute %s without a value", name)
		return "", "", false
	}
	d.i++
	d.space()
	q, raw := d.quoted()
	value = d.text(raw, q, true)
	return name, value, d.err == nil
}

func (d *mpdScanner) skipAttrs() {
	for _, _, ok := d.attr(); ok; _, _, ok = d.attr() {
	}
}

// child reads the content of the element called parent up to its next
// child's name, which it returns with the child's start tag open for
// attr, or up to and including parent's end tag, when ok is false.
// Character data is checked and dropped; comments are dropped.
func (d *mpdScanner) child(parent string) (name string, ok bool) {
	if d.err != nil {
		return "", false
	}
	if d.empty {
		d.empty = false
		return "", false
	}
	for {
		j := strings.IndexByte(d.s[d.i:], '<')
		if j < 0 {
			d.i = len(d.s)
			d.fail("unexpected EOF inside <%s>", parent)
			return "", false
		}
		d.text(d.s[d.i:d.i+j], 0, false)
		d.i += j
		if d.err != nil {
			return "", false
		}
		switch rest := d.s[d.i+1:]; {
		case strings.HasPrefix(rest, "/"):
			d.i += 2
			if end := d.name(); end != parent && d.err == nil {
				d.fail("element <%s> closed by </%s>", parent, end)
			}
			d.space()
			if d.err == nil && !strings.HasPrefix(d.s[d.i:], ">") {
				d.fail("malformed end tag </%s>", parent)
			}
			if d.err == nil {
				d.i++
			}
			return "", false
		case strings.HasPrefix(rest, "!--"):
			d.comment()
			if d.err != nil {
				return "", false
			}
		case strings.HasPrefix(rest, "!"), strings.HasPrefix(rest, "?"):
			d.fail("unsupported markup inside <%s>", parent)
			return "", false
		default:
			name := d.startTag()
			return name, d.err == nil
		}
	}
}

// skip drops the element whose name was just read, attributes and
// content, checking its syntax all the way down.
func (d *mpdScanner) skip(name string) {
	d.skipAttrs()
	d.skipContent(name)
}

// skipContent drops the content of the element called name, whose start
// tag has been read, and its end tag.
func (d *mpdScanner) skipContent(name string) {
	open := append(d.open[:0], name)
	for len(open) > 0 && d.err == nil {
		if c, ok := d.child(open[len(open)-1]); ok {
			d.skipAttrs()
			open = append(open, c)
		} else {
			open = open[:len(open)-1]
		}
	}
	d.open = open[:0]
}

// nameByte marks the bytes of the names read: ASCII letters, digits,
// '_', '-' and '.'. A name may not start with a digit, '-' or '.'.
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-' || c == '.'
	}
	return t
}()

// name reads an element or attribute name. A ':' (a namespace prefix)
// or a non-ASCII byte, which encoding/xml would read on as part of the
// name, is refused.
func (d *mpdScanner) name() string {
	if d.err != nil {
		return ""
	}
	s, i := d.s, d.i
	for i < len(s) && nameByte[s[i]] {
		i++
	}
	name := s[d.i:i]
	switch {
	case name == "" || name[0] >= '0' && name[0] <= '9' || name[0] == '-' || name[0] == '.':
		d.fail("want a name")
	case i < len(s) && (s[i] == ':' || s[i] >= utf8.RuneSelf):
		d.fail("name %q goes on with %q", name, s[i])
	}
	d.i = i
	return name
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// space skips white space and reports whether there was any.
func (d *mpdScanner) space() bool {
	i := d.i
	for d.i < len(d.s) && isSpace(d.s[d.i]) {
		d.i++
	}
	return d.i > i
}

// quoted reads a quoted attribute value and returns its quote and its
// raw text.
func (d *mpdScanner) quoted() (q byte, raw string) {
	if d.err != nil {
		return 0, ""
	}
	if d.i >= len(d.s) || d.s[d.i] != '"' && d.s[d.i] != '\'' {
		d.fail("unquoted attribute value")
		return 0, ""
	}
	q = d.s[d.i]
	j := strings.IndexByte(d.s[d.i+1:], q)
	if j < 0 {
		d.i = len(d.s)
		d.fail("unterminated attribute value")
		return 0, ""
	}
	raw = d.s[d.i+1 : d.i+1+j]
	d.i += j + 2
	return q, raw
}

// plainByte marks the bytes that stand for themselves in both character
// data and attribute values: tab, newline and printable ASCII but '&',
// '<' and '>'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '&' && c != '<' && c != '>'
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// text checks raw, the text of an attribute value quoted by q or of
// character data (q == 0), as encoding/xml reads it, and returns its
// value when want is set: references replaced, "\r\n" and a lone '\r'
// read as '\n'. Raw text that needs none of that is returned as it is.
// Every character must be valid UTF-8 in XML's Char range; outside an
// attribute, "]]>" may not appear.
func (d *mpdScanner) text(raw string, q byte, want bool) string {
	i := 0
	for i < len(raw) && plainByte[raw[i]] {
		i++
	}
	if i == len(raw) {
		return raw
	}
	buf := append(d.buf[:0], raw[:i]...)
	for i < len(raw) {
		c := raw[i]
		switch {
		case c == '&':
			r, n := charRef(raw[i:])
			if n == 0 {
				d.fail("invalid character reference in %.12q", raw[i:])
				return ""
			}
			buf = utf8.AppendRune(buf, r)
			i += n
		case c == '\r':
			buf = append(buf, '\n')
			if i++; i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c == '<':
			d.fail("unescaped < inside an attribute value")
			return ""
		case c == '>' && q == 0 && strings.HasSuffix(raw[:i], "]]"):
			d.fail("]]> outside a CDATA section")
			return ""
		case c < utf8.RuneSelf:
			if c < 0x20 && c != '\t' && c != '\n' {
				d.fail("illegal character %U", c)
				return ""
			}
			buf = append(buf, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
				d.fail("invalid character %q", raw[i:i+n])
				return ""
			}
			buf = append(buf, raw[i:i+n]...)
			i += n
		}
	}
	d.buf = buf
	if !want {
		return ""
	}
	return string(buf)
}

// charRef reads the character reference at the start of s ("&lt;",
// "&#60;", "&#x3c;"), returning its character and length, or n == 0 if
// encoding/xml would refuse it. A reference to a surrogate, which
// encoding/xml reads as U+FFFD, is refused as well: it is not a Char.
func charRef(s string) (r rune, n int) {
	for _, e := range [...]struct {
		ref string
		r   rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if strings.HasPrefix(s, e.ref) {
			return e.r, len(e.ref)
		}
	}
	if !strings.HasPrefix(s, "&#") {
		return 0, 0
	}
	base, i := rune(10), 2
	if strings.HasPrefix(s[2:], "x") {
		base, i = 16, 3
	}
	start := i
	for ; i < len(s) && r <= utf8.MaxRune; i++ {
		var digit rune
		switch c := rune(s[i]); {
		case '0' <= c && c <= '9':
			digit = c - '0'
		case base == 16 && 'a' <= c && c <= 'f':
			digit = c - 'a' + 10
		case base == 16 && 'A' <= c && c <= 'F':
			digit = c - 'A' + 10
		default:
			digit = -1
		}
		if digit < 0 {
			break
		}
		r = r*base + digit
	}
	if i == start || i >= len(s) || s[i] != ';' || !isXMLChar(r) {
		return 0, 0
	}
	return r, i + 1
}
