package cache

// MarkedLines returns how many lines currently carry at least one mark bit
// of the plane in core's L1.
func (h *Hierarchy) MarkedLines(thread, plane int) int {
	l1, slot := h.l1Of(thread), h.slotOf(thread)
	n := 0
	for i := range l1.ways {
		if l1.ways[i].tag != noTag && l1.marks(i, slot)[plane] != 0 {
			n++
		}
	}
	return n
}

// Resident reports whether the line containing addr is in the thread's L1.
func (h *Hierarchy) Resident(thread int, addr uint64) bool {
	return h.l1Of(thread).find(lineOf(addr)) >= 0
}

// FlushCore invalidates every line in the thread's L1. Marked drops are
// reported as evictions.
func (h *Hierarchy) FlushCore(thread int) {
	l1 := h.l1Of(thread)
	for i := range l1.ways {
		h.drop(l1, i, DropEvict, thread)
	}
}

// The address-based mark operations, each its own probe of the L1 set. A
// mark instruction is one MarkAccess; the tests use these to set up and
// inspect marks without an access, and to spell out the two-probe
// compositions MarkAccess must equal.

// SetMark sets plane's mark bits covering [addr, addr+size) in thread's L1;
// a no-op when the line is not resident, matching hardware that simply
// loses the mark.
func (h *Hierarchy) SetMark(thread, plane int, addr, size uint64) {
	l1 := h.l1Of(thread)
	if i := l1.find(lineOf(addr)); i >= 0 {
		slot := h.slotOf(thread)
		b, e := &l1.state[i].mark[slot][plane], l1.epoch[slot][plane]
		if *b&epochBits != e {
			*b = e
		}
		*b |= markSpan(addr, size)
	}
}

// ClearMark clears plane's mark bits covering [addr, addr+size).
func (h *Hierarchy) ClearMark(thread, plane int, addr, size uint64) {
	l1 := h.l1Of(thread)
	if i := l1.find(lineOf(addr)); i >= 0 {
		slot := h.slotOf(thread)
		if b := &l1.state[i].mark[slot][plane]; *b&epochBits == l1.epoch[slot][plane] {
			*b &^= markSpan(addr, size)
		}
	}
}

// TestMark reports whether ALL of plane's mark bits covering
// [addr, addr+size) are set.
func (h *Hierarchy) TestMark(thread, plane int, addr, size uint64) bool {
	l1 := h.l1Of(thread)
	i := l1.find(lineOf(addr))
	if i < 0 {
		return false
	}
	span := markSpan(addr, size)
	return l1.marks(i, h.slotOf(thread))[plane]&span == span
}
