package mptcp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the wire format the paper's kernel patch adds: the
// MPTCP DSS (Data Sequence Signal) option with one reserved flag bit
// repurposed to carry the client's MP-DASH decision about the cellular
// subflow to the server (§3.2, §6). The in-process simulator moves the
// decision through function calls; mpdash-pcap and internal/analysis
// decode it from captured traces.

// MPTCPOptionKind is the IANA TCP option kind for MPTCP.
const MPTCPOptionKind = 30

// DSSSubtype is the MPTCP subtype of the Data Sequence Signal option.
const DSSSubtype = 0x2

// dssOptionLen is the fixed length of the reproduction's DSS option:
// kind(1) + len(1) + subtype/flags(2) + dataSeq(8) + dataLen(2).
const dssOptionLen = 14

// dssFlagMPDashEnable is the reserved flag bit the paper claims for the
// MP-DASH decision ("a reserved bit in the MPTCP DSS option"). It lives in
// the DSS option's reserved byte, clear of the subtype nibble and the
// standard F/m/M/a/A flag bits.
const dssFlagMPDashEnable = 0x80

// DSSOption is the decoded Data Sequence Signal option, reduced to the
// fields this system uses.
type DSSOption struct {
	// DataSeq is the 64-bit data-level sequence number of the first byte
	// this mapping covers.
	DataSeq uint64
	// DataLen is the mapping's length in bytes.
	DataLen uint16
	// MPDashCellularEnable is the decision bit: true means the server may
	// use the secondary (cellular) subflow for subsequent data.
	MPDashCellularEnable bool
}

// ErrShortOption reports a truncated option buffer.
var ErrShortOption = errors.New("mptcp: short option")

// ErrBadOption reports a structurally invalid option.
var ErrBadOption = errors.New("mptcp: bad option")

// Encode serializes the option into a fresh buffer.
func (o DSSOption) Encode() []byte {
	b := make([]byte, dssOptionLen)
	b[0] = MPTCPOptionKind
	b[1] = dssOptionLen
	b[2] = byte(DSSSubtype << 4)
	if o.MPDashCellularEnable {
		b[3] |= dssFlagMPDashEnable
	}
	binary.BigEndian.PutUint64(b[4:12], o.DataSeq)
	binary.BigEndian.PutUint16(b[12:14], o.DataLen)
	return b
}

// DecodeDSSOption parses a DSS option produced by Encode. It validates the
// kind, length, and subtype.
func DecodeDSSOption(b []byte) (DSSOption, error) {
	if len(b) < dssOptionLen {
		return DSSOption{}, fmt.Errorf("%w: %d bytes", ErrShortOption, len(b))
	}
	if b[0] != MPTCPOptionKind {
		return DSSOption{}, fmt.Errorf("%w: kind %d", ErrBadOption, b[0])
	}
	if b[1] != dssOptionLen {
		return DSSOption{}, fmt.Errorf("%w: length %d", ErrBadOption, b[1])
	}
	if b[2]>>4 != DSSSubtype {
		return DSSOption{}, fmt.Errorf("%w: subtype %d", ErrBadOption, b[2]>>4)
	}
	return DSSOption{
		DataSeq:              binary.BigEndian.Uint64(b[4:12]),
		DataLen:              binary.BigEndian.Uint16(b[12:14]),
		MPDashCellularEnable: b[3]&dssFlagMPDashEnable != 0,
	}, nil
}
