package core

// Gather/scatter memory descriptors — §7: "we would like to extend the
// API to support gather/scatter operations more efficiently." This file
// implements that extension the way Portals 3.x later standardized it
// (PTL_MD_IOVEC): a descriptor may describe a list of memory segments
// instead of one contiguous region. Incoming data scatters across the
// segments in order; outgoing data (puts, get replies) gathers from them.
//
// The segment list is resolved at descriptor validation time into the
// same (offset, length) arithmetic the contiguous path uses, so the
// Figure 4 walk and the §4.8 rules are unchanged; only the copy step
// differs.

import (
	"encoding/binary"
	"math"
)

// ioView adapts a descriptor's memory — contiguous or segmented — to
// offset-addressed reads and writes.
type ioView struct {
	flat     []byte
	segments [][]byte
	length   uint64
}

func viewOf(md *MD) ioView {
	if len(md.Segments) > 0 {
		var n uint64
		for _, s := range md.Segments {
			n += uint64(len(s))
		}
		return ioView{segments: md.Segments, length: n}
	}
	return ioView{flat: md.Start, length: uint64(len(md.Start))}
}

// size returns the total addressable bytes.
func (v ioView) size() uint64 { return v.length }

// writeAt scatters src into the view at the given offset. The caller has
// already bounds-checked offset+len(src) against size() — except that a
// ZERO-length operation is accepted at any offset (a 0-byte put beyond
// the region is a legal no-op, found by the translation fuzzer), so the
// empty case must not touch the slices.
func (v ioView) writeAt(offset uint64, src []byte) {
	if len(src) == 0 {
		return
	}
	if v.segments == nil {
		copy(v.flat[offset:], src)
		return
	}
	for _, seg := range v.segments {
		if len(src) == 0 {
			return
		}
		segLen := uint64(len(seg))
		if offset >= segLen {
			offset -= segLen
			continue
		}
		n := copy(seg[offset:], src)
		src = src[n:]
		offset = 0
	}
}

// accumulateF64 combines src into the view at offset by elementwise
// float64 addition (little-endian, 8-byte elements) — the MDAccumulate
// delivery step, i.e. the NIC-side reduction. validateMD restricts
// accumulate descriptors to contiguous regions, so only the flat path
// exists; a trailing partial element (len(src)%8 != 0) is ignored, and as
// with writeAt a zero-length operation is a no-op at any offset. The
// caller holds the descriptor's portal lock, which is what serializes
// concurrent contributions into one slot.
//
//lint:requires memDesc.owner/portal.mu
func (v ioView) accumulateF64(offset uint64, src []byte) {
	for len(src) >= 8 {
		dst := v.flat[offset : offset+8]
		cur := math.Float64frombits(binary.LittleEndian.Uint64(dst))
		add := math.Float64frombits(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, math.Float64bits(cur+add))
		offset += 8
		src = src[8:]
	}
}

// readInto gathers len(dst) bytes from the view at offset into dst. The
// caller has already bounds-checked offset+len(dst) against size(); as
// with writeAt, a zero-length gather is a no-op at any offset. Unlike
// readAt it never allocates — the delivery engine uses it to build get
// replies directly inside pooled buffers.
func (v ioView) readInto(dst []byte, offset uint64) {
	if len(dst) == 0 {
		return
	}
	if v.segments == nil {
		copy(dst, v.flat[offset:])
		return
	}
	for _, seg := range v.segments {
		if len(dst) == 0 {
			return
		}
		segLen := uint64(len(seg))
		if offset >= segLen {
			offset -= segLen
			continue
		}
		n := copy(dst, seg[offset:])
		dst = dst[n:]
		offset = 0
	}
}

// readAt gathers length bytes from the view at offset into a fresh
// buffer. For contiguous descriptors it aliases the region (no copy);
// the engine encodes the result under the state lock either way.
func (v ioView) readAt(offset, length uint64) []byte {
	if length == 0 {
		return nil
	}
	if v.segments == nil {
		return v.flat[offset : offset+length]
	}
	out := make([]byte, length)
	fill := out
	for _, seg := range v.segments {
		if len(fill) == 0 {
			break
		}
		segLen := uint64(len(seg))
		if offset >= segLen {
			offset -= segLen
			continue
		}
		n := copy(fill, seg[offset:])
		fill = fill[n:]
		offset = 0
	}
	return out
}
