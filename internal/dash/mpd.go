package dash

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// This file implements a working subset of the MPEG-DASH Media
// Presentation Description (MPD). Beyond the standard fields, every
// segment carries an explicit size attribute: the paper (§5.1, following
// Yin et al.) argues chunk size should be a mandatory part of the DASH
// manifest because rate-adaptation algorithms need it; in its absence the
// prototype falls back to HTTP Content-Length. The reproduction's manifest
// makes the size first-class.
//
// The struct tags state the XML layout. EncodeMPD writes it and DecodeMPD
// reads it by hand (mpdscan.go); encoding/xml, which reads the tags, is
// their oracle in mpd_ref_test.go.

// MPD is the root manifest element.
type MPD struct {
	Profiles                  string `xml:"profiles,attr"`
	Type                      string `xml:"type,attr"`
	MediaPresentationDuration string `xml:"mediaPresentationDuration,attr"`
	Period                    Period `xml:"Period"`
}

// Period is the single period of our static presentations.
type Period struct {
	AdaptationSet AdaptationSet `xml:"AdaptationSet"`
}

// AdaptationSet groups the representations of one video track.
type AdaptationSet struct {
	MimeType        string           `xml:"mimeType,attr"`
	SegmentDuration float64          `xml:"segmentDurationSeconds,attr"`
	Representations []Representation `xml:"Representation"`
}

// Representation is one encoding ladder rung.
type Representation struct {
	ID        int       `xml:"id,attr"`
	Bandwidth int64     `xml:"bandwidth,attr"` // bits per second, per the DASH spec
	Segments  []Segment `xml:"SegmentList>SegmentURL"`
}

// Segment is one chunk of one representation.
type Segment struct {
	Media string `xml:"media,attr"`
	// Size is this reproduction's explicit chunk-size extension (bytes).
	Size int64 `xml:"size,attr"`
}

// Manifest builds the MPD for a video.
func (v *Video) Manifest() *MPD {
	m := &MPD{
		Profiles:                  "urn:mpeg:dash:profile:isoff-main:2011",
		Type:                      "static",
		MediaPresentationDuration: formatISODuration(v.Duration()),
		Period: Period{AdaptationSet: AdaptationSet{
			MimeType:        "video/mp4",
			SegmentDuration: v.ChunkDuration.Seconds(),
		}},
	}
	for li, l := range v.Levels {
		rep := Representation{
			ID:        l.ID,
			Bandwidth: int64(math.Round(l.AvgBitrateMbps * 1e6)),
		}
		for c := 0; c < v.NumChunks; c++ {
			rep.Segments = append(rep.Segments, Segment{
				Media: fmt.Sprintf("seg-l%d-c%04d.m4s", l.ID, c),
				Size:  v.ChunkSize(c, li),
			})
		}
		m.Period.AdaptationSet.Representations = append(m.Period.AdaptationSet.Representations, rep)
	}
	return m
}

// EncodeMPD serializes a manifest as indented XML: byte for byte what
// encoding/xml's MarshalIndent(m, "", "  ") writes, appended into one
// buffer sized up front. It never fails.
func EncodeMPD(m *MPD) ([]byte, error) {
	as := &m.Period.AdaptationSet
	n := 384 + len(m.Profiles) + len(m.Type) + len(m.MediaPresentationDuration) + len(as.MimeType)
	for _, r := range as.Representations {
		n += 128
		for _, s := range r.Segments {
			n += 64 + len(s.Media)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, `<MPD profiles="`...)
	b = appendAttrText(b, m.Profiles)
	b = append(b, `" type="`...)
	b = appendAttrText(b, m.Type)
	b = append(b, `" mediaPresentationDuration="`...)
	b = appendAttrText(b, m.MediaPresentationDuration)
	b = append(b, "\">\n  <Period>\n    <AdaptationSet mimeType=\""...)
	b = appendAttrText(b, as.MimeType)
	b = append(b, `" segmentDurationSeconds="`...)
	b = strconv.AppendFloat(b, as.SegmentDuration, 'g', -1, 64)
	b = append(b, `">`...)
	// MarshalIndent puts an end tag on its start tag's line when nothing
	// came between them, and on a new line otherwise.
	for _, r := range as.Representations {
		b = append(b, "\n      <Representation id=\""...)
		b = strconv.AppendInt(b, int64(r.ID), 10)
		b = append(b, `" bandwidth="`...)
		b = strconv.AppendInt(b, r.Bandwidth, 10)
		b = append(b, "\">\n        <SegmentList>"...)
		for _, s := range r.Segments {
			b = append(b, "\n          <SegmentURL media=\""...)
			b = appendAttrText(b, s.Media)
			b = append(b, `" size="`...)
			b = strconv.AppendInt(b, s.Size, 10)
			b = append(b, `"></SegmentURL>`...)
		}
		if len(r.Segments) > 0 {
			b = append(b, "\n        "...)
		}
		b = append(b, "</SegmentList>\n      </Representation>"...)
	}
	if len(as.Representations) > 0 {
		b = append(b, "\n    "...)
	}
	b = append(b, "</AdaptationSet>\n  </Period>\n</MPD>"...)
	return b, nil
}

// appendAttrText appends s escaped as encoding/xml escapes an attribute
// value: the five markup characters and tab, newline and carriage return
// as character references, and each invalid UTF-8 byte or rune outside
// XML's Char range as U+FFFD.
func appendAttrText(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if attrPlain[s[i]] {
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !isXMLChar(r) || r == utf8.RuneError && w == 1 {
				esc = "\uFFFD"
				break
			}
			i += w
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += w
		last = i
	}
	return append(b, s[last:]...)
}

// attrPlain marks the bytes appendAttrText copies as they are: printable
// ASCII but the five markup characters.
var attrPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"'&<>`, rune(c))
	}
	return t
}()

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// VideoFromManifest reconstructs a Video (with exact per-chunk sizes
// replaced by the manifest's explicit sizes) from an MPD. The returned
// video keeps the manifest sizes in a lookup table, so ChunkSize is not
// usable on it; callers use ManifestSizes instead. For the simulator the
// generated Video objects are used directly; this function exists so the
// real-socket client can bootstrap purely from the manifest.
func VideoFromManifest(m *MPD, name string) (*Video, [][]int64, error) {
	reps := m.Period.AdaptationSet.Representations
	if len(reps) == 0 {
		return nil, nil, fmt.Errorf("dash: manifest has no representations")
	}
	n := len(reps[0].Segments)
	v := &Video{
		Name:          name,
		ChunkDuration: time.Duration(math.Round(m.Period.AdaptationSet.SegmentDuration * float64(time.Second))),
		NumChunks:     n,
	}
	sizes := make([][]int64, len(reps))
	for i, r := range reps {
		if len(r.Segments) != n {
			return nil, nil, fmt.Errorf("dash: representation %d has %d segments, want %d", r.ID, len(r.Segments), n)
		}
		v.Levels = append(v.Levels, Level{ID: r.ID, AvgBitrateMbps: float64(r.Bandwidth) / 1e6})
		sizes[i] = make([]int64, n)
		for j, s := range r.Segments {
			if s.Size <= 0 {
				return nil, nil, fmt.Errorf("dash: representation %d segment %d (%q) has size %d", r.ID, j, s.Media, s.Size)
			}
			sizes[i][j] = s.Size
		}
	}
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	return v, sizes, nil
}

// formatISODuration renders d as an ISO-8601 duration (PT#H#M#S).
func formatISODuration(d time.Duration) string {
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	s := d.Seconds() - float64(h*3600+m*60)
	return fmt.Sprintf("PT%dH%dM%.3fS", h, m, s)
}
