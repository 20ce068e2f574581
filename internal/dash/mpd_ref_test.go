package dash

// The reference for the differential tests in mpd_test.go: encoding/xml,
// which EncodeMPD and DecodeMPD replaced, reading the MPD types' struct
// tags. It is the oracle; do not "fix" it.

import (
	"encoding/xml"
	"fmt"
)

// refMPD names the root element, which Unmarshal then requires.
type refMPD struct {
	XMLName xml.Name `xml:"MPD"`
	MPD
}

func refEncodeMPD(m *MPD) ([]byte, error) {
	return xml.MarshalIndent(&refMPD{MPD: *m}, "", "  ")
}

func refDecodeMPD(b []byte) (*MPD, error) {
	var m refMPD
	if err := xml.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("dash: parsing MPD: %w", err)
	}
	return &m.MPD, nil
}
