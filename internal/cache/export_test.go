package cache

// NumSockets returns the machine's socket count.
func (h *Hierarchy) NumSockets() int { return h.sockets }

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
