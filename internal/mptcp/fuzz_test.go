package mptcp

import "testing"

// Fuzz target for the DSS codec: the decoder must never panic on
// arbitrary input, and anything they accept must re-encode losslessly.

func FuzzDecodeDSSOption(f *testing.F) {
	f.Add(DSSOption{DataSeq: 1, DataLen: 1460, MPDashCellularEnable: true}.Encode())
	f.Add([]byte{})
	f.Add([]byte{30, 14, 0x20})
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := DecodeDSSOption(b)
		if err != nil {
			return
		}
		got, err := DecodeDSSOption(o.Encode())
		if err != nil || got != o {
			t.Fatalf("accepted option does not round-trip: %+v vs %+v (%v)", o, got, err)
		}
	})
}
