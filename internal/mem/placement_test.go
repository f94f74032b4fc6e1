package mem

import "testing"

func TestHomeSocketFlat(t *testing.T) {
	m := New()
	a := m.Alloc(1<<PlacementPageShift, 8)
	if h := m.HomeSocket(a, 3); h != 0 {
		t.Errorf("flat memory HomeSocket = %d, want 0", h)
	}
	// SetPlacement with <= 1 socket must stay flat.
	m.SetPlacement(1, PlaceFirstTouch)
	if h := m.HomeSocket(a, 3); h != 0 {
		t.Errorf("1-socket HomeSocket = %d, want 0", h)
	}
}

func TestHomeSocketInterleave(t *testing.T) {
	m := New()
	page := uint64(1) << PlacementPageShift
	a := m.Alloc(4*page, page)
	m.SetPlacement(4, PlaceInterleave)
	// Consecutive placement pages round-robin over the sockets, regardless
	// of which socket asks first.
	h0 := m.HomeSocket(a, 2)
	h1 := m.HomeSocket(a+page, 2)
	h2 := m.HomeSocket(a+2*page, 2)
	h3 := m.HomeSocket(a+3*page, 2)
	seen := map[int]bool{h0: true, h1: true, h2: true, h3: true}
	if len(seen) != 4 {
		t.Errorf("4 consecutive pages homed on %d distinct sockets (%d %d %d %d), want 4",
			len(seen), h0, h1, h2, h3)
	}
	// Memoised: asking again from another socket must not move the page.
	if got := m.HomeSocket(a, 3); got != h0 {
		t.Errorf("page home moved from %d to %d on re-query", h0, got)
	}
	// Same page, different line: same home.
	if got := m.HomeSocket(a+64, 1); got != h0 {
		t.Errorf("same-page address homed differently: %d vs %d", got, h0)
	}
}

func TestHomeSocketFirstTouch(t *testing.T) {
	m := New()
	page := uint64(1) << PlacementPageShift
	a := m.Alloc(2*page, page)
	m.SetPlacement(4, PlaceFirstTouch)
	if h := m.HomeSocket(a, 2); h != 2 {
		t.Errorf("first touch by socket 2 homed page on %d", h)
	}
	// Sticky: the second toucher does not move it.
	if h := m.HomeSocket(a, 0); h != 2 {
		t.Errorf("page moved to %d after second touch", h)
	}
	if h := m.HomeSocket(a+page, 3); h != 3 {
		t.Errorf("first touch by socket 3 homed page on %d", h)
	}
}

func TestPlacementStringUnknown(t *testing.T) {
	if got := Placement(7).String(); got != "Placement(7)" {
		t.Errorf("Placement(7).String() = %q", got)
	}
}
