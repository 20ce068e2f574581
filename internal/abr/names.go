package abr

import (
	"fmt"
	"strings"

	"mpdash/internal/dash"
)

// New builds a fresh instance of the rate-adaptation algorithm called
// name, for video: gpac, festive, bba, bbac, mpc, fastmpc or svaa. Case
// and '-' are ignored, so "BBA-C" and "bbac" name the same algorithm. An
// empty or unknown name is an error; callers pick their own default.
func New(name string, video *dash.Video) (dash.RateAdapter, error) {
	switch strings.ToLower(strings.ReplaceAll(name, "-", "")) {
	case "gpac":
		return NewGPAC(), nil
	case "festive":
		return NewFESTIVE(), nil
	case "bba":
		return NewBBA(), nil
	case "bbac":
		return NewBBAC(), nil
	case "mpc":
		return NewMPC(), nil
	case "fastmpc":
		return NewFastMPC(video), nil
	case "svaa":
		return NewSVAA(), nil
	}
	return nil, fmt.Errorf("abr: unknown algorithm %q", name)
}
