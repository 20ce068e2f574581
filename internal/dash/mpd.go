package dash

import (
	"encoding/xml"
	"fmt"
	"time"
)

// This file implements a working subset of the MPEG-DASH Media
// Presentation Description (MPD). Beyond the standard fields, every
// segment carries an explicit size attribute: the paper (§5.1, following
// Yin et al.) argues chunk size should be a mandatory part of the DASH
// manifest because rate-adaptation algorithms need it; in its absence the
// prototype falls back to HTTP Content-Length. The reproduction's manifest
// makes the size first-class.

// MPD is the root manifest element.
type MPD struct {
	XMLName                   xml.Name `xml:"MPD"`
	Profiles                  string   `xml:"profiles,attr"`
	Type                      string   `xml:"type,attr"`
	MediaPresentationDuration string   `xml:"mediaPresentationDuration,attr"`
	Period                    Period   `xml:"Period"`
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
			Bandwidth: int64(l.AvgBitrateMbps * 1e6),
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

// EncodeMPD serializes a manifest as XML.
func EncodeMPD(m *MPD) ([]byte, error) {
	return xml.MarshalIndent(m, "", "  ")
}

// DecodeMPD parses a manifest.
func DecodeMPD(b []byte) (*MPD, error) {
	var m MPD
	if err := xml.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("dash: parsing MPD: %w", err)
	}
	return &m, nil
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
		ChunkDuration: time.Duration(m.Period.AdaptationSet.SegmentDuration * float64(time.Second)),
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
