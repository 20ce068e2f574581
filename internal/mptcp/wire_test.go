package mptcp

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestDSSOptionRoundTrip(t *testing.T) {
	for _, o := range []DSSOption{
		{},
		{DataSeq: 1, DataLen: 1460, MPDashCellularEnable: true},
		{DataSeq: ^uint64(0), DataLen: ^uint16(0), MPDashCellularEnable: false},
	} {
		b := o.Encode()
		if len(b) != dssOptionLen {
			t.Fatalf("encoded length %d", len(b))
		}
		got, err := DecodeDSSOption(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != o {
			t.Errorf("round trip %+v -> %+v", o, got)
		}
	}
}

func TestDSSOptionRoundTripProperty(t *testing.T) {
	f := func(seq uint64, l uint16, en bool) bool {
		o := DSSOption{DataSeq: seq, DataLen: l, MPDashCellularEnable: en}
		got, err := DecodeDSSOption(o.Encode())
		return err == nil && got == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDSSOptionHeaderFields(t *testing.T) {
	b := DSSOption{MPDashCellularEnable: true}.Encode()
	if b[0] != MPTCPOptionKind {
		t.Errorf("kind = %d", b[0])
	}
	if b[2]>>4 != DSSSubtype {
		t.Errorf("subtype = %d", b[2]>>4)
	}
	if b[3]&dssFlagMPDashEnable == 0 {
		t.Error("decision bit not set")
	}
}

func TestDecodeDSSOptionErrors(t *testing.T) {
	good := DSSOption{DataSeq: 7}.Encode()

	short := good[:5]
	if _, err := DecodeDSSOption(short); !errors.Is(err, ErrShortOption) {
		t.Errorf("short: %v", err)
	}

	badKind := append([]byte(nil), good...)
	badKind[0] = 99
	if _, err := DecodeDSSOption(badKind); !errors.Is(err, ErrBadOption) {
		t.Errorf("bad kind: %v", err)
	}

	badLen := append([]byte(nil), good...)
	badLen[1] = 7
	if _, err := DecodeDSSOption(badLen); !errors.Is(err, ErrBadOption) {
		t.Errorf("bad len: %v", err)
	}

	badSub := append([]byte(nil), good...)
	badSub[2] = 0x30
	if _, err := DecodeDSSOption(badSub); !errors.Is(err, ErrBadOption) {
		t.Errorf("bad subtype: %v", err)
	}
}
